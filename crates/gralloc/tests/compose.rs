//! Differential test for the compositor (DESIGN.md §5g): the flinger's
//! span-raster composition must write the bytes, and charge the virtual
//! time, that the per-pixel reference raster produces for the same
//! layer stacks, repaints and destination rects.

use std::sync::Arc;

use proptest::prelude::*;

use cycada_gpu::raster::Rect;
use cycada_gpu::{DrawClass, GpuDevice, Image, PixelFormat, Rgba};
use cycada_gralloc::SurfaceFlinger;
use cycada_kernel::Display;
use cycada_sim::{GpuCostModel, VirtualClock};

const PANEL: u32 = 96;

/// Side of the reference canvas: large enough that every destination
/// rect [`arb_layer`] draws lies wholly inside it, so the reference
/// blit needs no clipping and the panel is its top-left crop.
const CANVAS: u32 = PANEL + 16 + 64;

fn gpu() -> Arc<GpuDevice> {
    Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()))
}

/// One scripted layer: geometry plus the repaints its backing image
/// receives between frames.
#[derive(Debug, Clone)]
struct LayerScript {
    w: u32,
    h: u32,
    dst: Rect,
    seed: u8,
    /// Per-frame repaint: None = untouched, Some(rect) = fill that rect
    /// (empty rect = per-pixel repaint of the whole image).
    touches: Vec<Option<Rect>>,
}

fn arb_layer(frames: usize) -> impl Strategy<Value = LayerScript> {
    (
        (1u32..32, 1u32..32),
        (0u32..PANEL + 16, 0u32..PANEL + 16, 1u32..64, 1u32..64),
        any::<u8>(),
        proptest::collection::vec(
            proptest::option::of((0u32..32, 0u32..32, 0u32..16, 0u32..16)),
            frames..=frames,
        ),
    )
        .prop_map(|((w, h), (dx, dy, dw, dh), seed, touches)| LayerScript {
            w,
            h,
            dst: Rect { x: dx, y: dy, w: dw, h: dh },
            seed,
            touches: touches
                .into_iter()
                .map(|t| t.map(|(x, y, w, h)| Rect { x, y, w, h }))
                .collect(),
        })
}

fn paint(image: &Image, seed: u8, frame: usize) {
    for y in 0..image.height() {
        for x in 0..image.width() {
            image.set_pixel(
                x,
                y,
                Rgba::from_bytes([
                    seed.wrapping_add((x * 13) as u8).wrapping_add(frame as u8),
                    (y * 7) as u8 ^ seed,
                    ((x + y) * 3) as u8,
                    255,
                ]),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For a random layer stack with random per-frame repaints, some
    /// layers scaled and some hanging off the panel, the flinger on a
    /// span device matches a reference-raster device blitting the same
    /// stack onto an oversized canvas: identical panel bytes and
    /// identical virtual time.
    #[test]
    fn composite_matches_reference_raster(
        layers in proptest::collection::vec(arb_layer(4), 1..5),
    ) {
        let sf = SurfaceFlinger::new(Display::new(PANEL, PANEL), gpu());
        let ref_gpu = gpu();
        ref_gpu.set_reference_raster(true);
        let canvas = Image::new(CANVAS, CANVAS, PixelFormat::Rgba8888);
        let images: Vec<Image> = layers
            .iter()
            .map(|l| {
                let img = Image::new(l.w, l.h, PixelFormat::Rgba8888);
                paint(&img, l.seed, 0);
                img
            })
            .collect();
        for frame in 0..4 {
            for (layer, image) in layers.iter().zip(&images) {
                if let Some(touch) = layer.touches[frame] {
                    if touch.is_empty() {
                        paint(image, layer.seed, frame + 1);
                    } else {
                        image.fill_rect(touch, Rgba::from_bytes([frame as u8, 0x40, 0x80, 255]));
                    }
                }
            }
            let stack: Vec<(&Image, Rect)> =
                layers.iter().zip(&images).map(|(l, i)| (i, l.dst)).collect();
            sf.composite(&stack);
            for (image, dst) in &stack {
                ref_gpu.blit(image, Rect::of_image(image), &canvas, *dst, DrawClass::TwoD);
            }
            ref_gpu.charge_present();
        }

        let row = PANEL as usize * 4;
        let expected: Vec<u8> = canvas.buffer().read(|b| {
            b.chunks(canvas.row_bytes())
                .take(PANEL as usize)
                .flat_map(|r| &r[..row])
                .copied()
                .collect()
        });
        prop_assert_eq!(sf.display().scanout().to_vec(), expected, "scanout bytes diverged");
        prop_assert_eq!(
            sf.gpu().clock().now_ns(),
            ref_gpu.clock().now_ns(),
            "virtual time diverged"
        );
    }
}
