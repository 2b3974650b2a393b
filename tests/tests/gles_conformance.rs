//! GLES conformance battery: every feature is rendered through the Cycada
//! bridge (iOS app on Android) and natively (Android app on Android) and
//! compared **pixel for pixel** — the reproduction of the paper's claim of
//! "robust binary compatible graphics device support across a broad range
//! of graphics functions".

use cycada::AppGl;
use cycada_gles::{Capability, GlesVersion, Primitive, TexFormat};
use cycada_sim::Platform;

const SMALL: Option<(u32, u32)> = Some((96, 72));

/// Renders `scene` on both paths and asserts identical displayed pixels.
fn assert_conformant(version: GlesVersion, name: &str, scene: impl Fn(&mut AppGl)) {
    let mut native = AppGl::boot_with_display(Platform::StockAndroid, version, SMALL).unwrap();
    scene(&mut native);
    native.present().unwrap();
    let expect = native.display().scanout().to_vec();

    let mut bridged = AppGl::boot_with_display(Platform::CycadaIos, version, SMALL).unwrap();
    scene(&mut bridged);
    bridged.present().unwrap();
    let got = bridged.display().scanout().to_vec();

    assert_eq!(expect, got, "{name} diverged between native and bridged");
}

#[test]
fn triangles_flat() {
    assert_conformant(GlesVersion::V1, "triangles", |app| {
        app.clear(0.1, 0.1, 0.1, 1.0).unwrap();
        app.draw(
            Primitive::Triangles,
            &[-0.8, -0.8, 0.0, 0.8, -0.8, 0.0, 0.0, 0.7, 0.0],
            [0.9, 0.2, 0.1, 1.0],
        )
        .unwrap();
    });
}

#[test]
fn triangle_strip_and_fan() {
    assert_conformant(GlesVersion::V1, "strip+fan", |app| {
        app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
        app.draw(
            Primitive::TriangleStrip,
            &[
                -0.9, -0.9, 0.0, -0.9, 0.0, 0.0, -0.2, -0.9, 0.0, -0.2, 0.0, 0.0,
            ],
            [0.2, 0.8, 0.3, 1.0],
        )
        .unwrap();
        app.draw(
            Primitive::TriangleFan,
            &[
                0.5, 0.5, 0.0, 0.9, 0.5, 0.0, 0.8, 0.8, 0.0, 0.5, 0.9, 0.0, 0.2, 0.8, 0.0,
            ],
            [0.3, 0.3, 0.9, 1.0],
        )
        .unwrap();
    });
}

#[test]
fn lines_points_loops() {
    assert_conformant(GlesVersion::V1, "lines", |app| {
        app.clear(1.0, 1.0, 1.0, 1.0).unwrap();
        app.draw(
            Primitive::Lines,
            &[-0.9, -0.5, 0.0, 0.9, -0.5, 0.0, -0.9, 0.5, 0.0, 0.9, 0.6, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        )
        .unwrap();
        app.draw(
            Primitive::LineStrip,
            &[-0.5, -0.9, 0.0, 0.0, 0.9, 0.0, 0.5, -0.9, 0.0],
            [0.8, 0.0, 0.0, 1.0],
        )
        .unwrap();
        app.draw(
            Primitive::LineLoop,
            &[-0.3, -0.3, 0.0, 0.3, -0.3, 0.0, 0.3, 0.3, 0.0, -0.3, 0.3, 0.0],
            [0.0, 0.4, 0.0, 1.0],
        )
        .unwrap();
        app.draw(
            Primitive::Points,
            &[0.7, 0.7, 0.0, -0.7, 0.7, 0.0],
            [0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
    });
}

#[test]
fn alpha_blending() {
    assert_conformant(GlesVersion::V1, "blend", |app| {
        app.clear(0.0, 0.0, 0.3, 1.0).unwrap();
        app.set_capability(Capability::Blend, true).unwrap();
        app.draw(
            Primitive::Triangles,
            &[-1.0, -1.0, 0.0, 3.0, -1.0, 0.0, -1.0, 3.0, 0.0],
            [1.0, 0.0, 0.0, 0.5],
        )
        .unwrap();
        app.set_capability(Capability::Blend, false).unwrap();
    });
}

#[test]
fn depth_testing() {
    assert_conformant(GlesVersion::V1, "depth", |app| {
        app.set_capability(Capability::DepthTest, true).unwrap();
        app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
        // Far red quad first, then near green; then a far blue that must
        // lose against both.
        app.draw(
            Primitive::Triangles,
            &[-1.0, -1.0, 0.8, 3.0, -1.0, 0.8, -1.0, 3.0, 0.8],
            [1.0, 0.0, 0.0, 1.0],
        )
        .unwrap();
        app.draw(
            Primitive::Triangles,
            &[-0.5, -0.5, 0.2, 0.9, -0.5, 0.2, -0.5, 0.9, 0.2],
            [0.0, 1.0, 0.0, 1.0],
        )
        .unwrap();
        app.draw(
            Primitive::Triangles,
            &[-1.0, -1.0, 0.9, 3.0, -1.0, 0.9, -1.0, 3.0, 0.9],
            [0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
    });
}

#[test]
fn texturing_rgba_and_565() {
    for format in [TexFormat::Rgba, TexFormat::Rgb565] {
        assert_conformant(GlesVersion::V1, "texturing", move |app| {
            app.clear(0.2, 0.2, 0.2, 1.0).unwrap();
            let bpp = format.bytes_per_pixel();
            let mut data = vec![0u8; 4 * 4 * bpp];
            for (i, byte) in data.iter_mut().enumerate() {
                *byte = (i * 37 % 251) as u8;
            }
            let tex = app.create_texture(4, 4, format, &data).unwrap();
            app.draw_textured_quad(tex, -0.8, -0.8, 0.8, 0.8).unwrap();
        });
    }
}

#[test]
fn texture_sub_updates() {
    assert_conformant(GlesVersion::V2, "texsub", |app| {
        app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
        let tex = app
            .create_texture(8, 8, TexFormat::Rgba, &[128u8; 8 * 8 * 4])
            .unwrap();
        app.update_texture(tex, 2, 2, 4, 4, TexFormat::Rgba, &[255u8; 4 * 4 * 4])
            .unwrap();
        app.draw_textured_quad_indexed(tex, -1.0, -1.0, 1.0, 1.0)
            .unwrap();
    });
}

#[test]
fn malformed_sub_image_uploads_are_rejected_not_fatal() {
    // Too little data for the rect, and an x offset whose `x + width`
    // wraps u32: both paths record GL_INVALID_VALUE instead of
    // panicking, and the texture keeps its contents.
    assert_conformant(GlesVersion::V1, "texsub-malformed", |app| {
        let tex = app
            .create_texture(4, 4, TexFormat::Rgba, &[96u8; 4 * 4 * 4])
            .unwrap();
        app.update_texture(tex, 0, 0, 4, 4, TexFormat::Rgba, &[0; 4])
            .unwrap();
        app.update_texture(tex, u32::MAX, 0, 2, 1, TexFormat::Rgba, &[0; 8])
            .unwrap();
        app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
        app.draw_textured_quad(tex, -1.0, -1.0, 1.0, 1.0).unwrap();
    });
    let app = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V1, SMALL).unwrap();
    let tex = app.create_texture(4, 4, TexFormat::Rgba, &[96u8; 64]).unwrap();
    app.update_texture(tex, u32::MAX, 0, 2, 1, TexFormat::Rgba, &[0; 8])
        .unwrap();
    app.draw_textured_quad(tex, -1.0, -1.0, 1.0, 1.0).unwrap();
    let center = app.render_target().unwrap().pixel_rgba(48, 36).to_bytes();
    assert_eq!(center, [96, 96, 96, 96]);
}

#[test]
fn transform_stack_composition() {
    for version in [GlesVersion::V1, GlesVersion::V2] {
        assert_conformant(version, "transforms", |app| {
            app.clear(0.05, 0.05, 0.05, 1.0).unwrap();
            let tri = [-0.2f32, -0.2, 0.0, 0.2, -0.2, 0.0, 0.0, 0.25, 0.0];
            for i in 0..6 {
                app.push_transform().unwrap();
                app.rotate(i as f32 * 60.0).unwrap();
                app.translate(0.0, 0.55, 0.0).unwrap();
                app.scale(0.8, 0.8, 1.0).unwrap();
                app.draw(Primitive::Triangles, &tri, [0.9, 0.7, 0.1, 1.0])
                    .unwrap();
                app.pop_transform().unwrap();
            }
        });
    }
}

#[test]
fn v2_shader_pipeline_scene() {
    assert_conformant(GlesVersion::V2, "shaders", |app| {
        app.clear(0.0, 0.1, 0.2, 1.0).unwrap();
        app.rotate(30.0).unwrap();
        app.draw(
            Primitive::Triangles,
            &[-0.6, -0.6, 0.0, 0.6, -0.6, 0.0, 0.0, 0.8, 0.0],
            [0.9, 0.9, 0.9, 1.0],
        )
        .unwrap();
        app.load_identity().unwrap();
    });
}

#[test]
fn bgra_textures_match_native_rgba() {
    // The iOS app uploads BGRA (which Android rejects); the bridge's
    // data-dependent conversion must make the result identical to a
    // native app uploading the same colors as RGBA.
    let colors_rgba: Vec<u8> = (0..16).flat_map(|i| [i * 16, 255 - i * 16, i * 8, 255]).collect();
    let colors_bgra: Vec<u8> = colors_rgba
        .chunks_exact(4)
        .flat_map(|px| [px[2], px[1], px[0], px[3]])
        .collect();

    let native = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V2, SMALL).unwrap();
    native.clear(0.0, 0.0, 0.0, 1.0).unwrap();
    let tex = native.create_texture(4, 4, TexFormat::Rgba, &colors_rgba).unwrap();
    native.draw_textured_quad(tex, -1.0, -1.0, 1.0, 1.0).unwrap();
    native.present().unwrap();

    let bridged = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
    bridged.clear(0.0, 0.0, 0.0, 1.0).unwrap();
    let tex = bridged.create_texture(4, 4, TexFormat::Bgra, &colors_bgra).unwrap();
    bridged.draw_textured_quad(tex, -1.0, -1.0, 1.0, 1.0).unwrap();
    bridged.present().unwrap();

    assert_eq!(
        native.display().scanout().to_vec(),
        bridged.display().scanout().to_vec()
    );
}

#[test]
fn multi_frame_animation_stays_in_sync() {
    // Several presents in a row (double buffering on Android vs EAGL
    // off-screen present on Cycada) must still converge frame by frame.
    let run = |platform| {
        let mut app = AppGl::boot_with_display(platform, GlesVersion::V1, SMALL).unwrap();
        let mut frames = Vec::new();
        for i in 0..4 {
            app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
            app.push_transform().unwrap();
            app.rotate(i as f32 * 45.0).unwrap();
            app.draw(
                Primitive::Triangles,
                &[-0.5, -0.5, 0.0, 0.5, -0.5, 0.0, 0.0, 0.6, 0.0],
                [0.1, 0.9, 0.5, 1.0],
            )
            .unwrap();
            app.pop_transform().unwrap();
            app.present().unwrap();
            frames.push(app.display().scanout().to_vec());
        }
        frames
    };
    assert_eq!(run(Platform::StockAndroid), run(Platform::CycadaIos));
}

#[test]
fn fences_are_usable_from_the_ios_surface() {
    // APPLE_fence (bridged onto NV_fence) behaves like native NV_fence.
    let app = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap();
    let device = app.cycada_device().unwrap();
    let bridge = device.bridge();
    let tid = app.tid();
    let fence = bridge.gen_fences_apple(tid, 1).unwrap()[0];
    assert!(bridge.is_fence_apple(tid, fence).unwrap());
    app.draw(
        Primitive::Triangles,
        &[-1.0, -1.0, 0.0, 3.0, -1.0, 0.0, -1.0, 3.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
    )
    .unwrap();
    bridge.set_fence_apple(tid, fence).unwrap();
    assert!(!bridge.test_fence_apple(tid, fence).unwrap());
    bridge.flush(tid).unwrap();
    assert!(bridge.test_fence_apple(tid, fence).unwrap());
    bridge.delete_fences_apple(tid, &[fence]).unwrap();
    assert!(!bridge.is_fence_apple(tid, fence).unwrap());
}

#[test]
fn read_pixels_matches_across_paths() {
    let scene = |app: &AppGl| {
        app.clear(0.3, 0.6, 0.9, 1.0).unwrap();
    };
    let native = AppGl::boot_with_display(Platform::StockAndroid, GlesVersion::V2, SMALL).unwrap();
    scene(&native);
    let native_gles = native.cycada_device().is_none();
    assert!(native_gles);

    let bridged = AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V2, SMALL).unwrap();
    scene(&bridged);
    let device = bridged.cycada_device().unwrap();
    let pixels = device
        .bridge()
        .read_pixels(bridged.tid(), 0, 0, 4, 4, TexFormat::Rgba)
        .unwrap();
    assert_eq!(&pixels[0..4], &[77, 153, 230, 255]);
}
