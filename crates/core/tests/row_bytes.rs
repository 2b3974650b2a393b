//! `APPLE_row_bytes` state belongs to the simulated thread, not to the host
//! thread that happens to issue a call: iOS lets any thread use any context
//! (§7), so a host worker driving an app's tid must see the stride that tid
//! set, whichever host thread set it.

use cycada::AppGl;
use cycada_gles::{GlError, GlesVersion, PixelStoreParam, TexFormat};
use cycada_sim::Platform;

const SMALL: Option<(u32, u32)> = Some((16, 16));

fn app() -> AppGl {
    AppGl::boot_with_display(Platform::CycadaIos, GlesVersion::V1, SMALL).unwrap()
}

#[test]
fn pack_row_bytes_set_on_one_host_thread_applies_on_another() {
    let app = app();
    let (bridge, tid) = (app.cycada_device().unwrap().bridge(), app.tid());
    bridge.pixel_storei(tid, PixelStoreParam::PackRowBytesApple, 32).unwrap();
    app.clear(0.0, 1.0, 0.0, 1.0).unwrap();

    let here = bridge.read_pixels(tid, 0, 0, 4, 4, TexFormat::Rgba).unwrap();
    let there = std::thread::scope(|s| {
        s.spawn(|| bridge.read_pixels(tid, 0, 0, 4, 4, TexFormat::Rgba).unwrap())
            .join()
            .unwrap()
    });
    assert_eq!(here.len(), 128, "4 rows spread to the 32-byte pack stride");
    assert_eq!(there, here, "the other host thread sees the same stride");
}

#[test]
fn unpack_row_bytes_set_on_one_host_thread_applies_on_another() {
    let app = app();
    let (bridge, tid) = (app.cycada_device().unwrap().bridge(), app.tid());
    // 4x4 RGBA, 16 bytes per tight row, stored at a 32-byte stride whose
    // padding bytes must never reach the texture.
    let tight: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) | 1).collect();
    let mut padded = vec![0xEE; 128];
    for row in 0..4 {
        padded[row * 32..row * 32 + 16].copy_from_slice(&tight[row * 16..row * 16 + 16]);
    }
    let upload = |data: &[u8]| {
        let tex = bridge.gen_textures(tid, 1).unwrap()[0];
        bridge.bind_texture(tid, tex).unwrap();
        bridge.tex_image_2d(tid, 4, 4, TexFormat::Rgba, Some(data)).unwrap();
        assert_eq!(bridge.get_error(tid).unwrap(), GlError::NoError);
        tex
    };

    bridge.pixel_storei(tid, PixelStoreParam::UnpackRowBytesApple, 32).unwrap();
    let same_thread = upload(&padded);
    let other_thread = std::thread::scope(|s| s.spawn(|| upload(&padded)).join().unwrap());
    bridge.pixel_storei(tid, PixelStoreParam::UnpackRowBytesApple, 0).unwrap();
    let reference = upload(&tight);

    let texels = |tex| {
        app.clear(0.0, 0.0, 0.0, 1.0).unwrap();
        app.draw_textured_quad(tex, -1.0, -1.0, 1.0, 1.0).unwrap();
        app.render_hash().unwrap()
    };
    assert_eq!(texels(same_thread), texels(reference));
    assert_eq!(
        texels(other_thread),
        texels(reference),
        "the other host thread repacked at the tid's unpack stride"
    );
}
