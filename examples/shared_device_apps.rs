//! The session plane in action: ONE booted Cycada device, TWO iOS apps —
//! a PassMark-style 3D benchmark and a WebKit browser — attached as
//! concurrent sessions, each rendering from its own host thread into its
//! own EAGL drawable. SurfaceFlinger composites both drawables side by
//! side on the shared panel, and each session keeps private virtual-time
//! and per-function figures even though the device (kernel, linker, GPU,
//! vendor libraries) is shared.

use std::thread;

use cycada::{AppGl, CycadaDevice, Result};
use cycada_gles::{GlesVersion, Primitive};
use cycada_gpu::raster::Rect;
use cycada_gpu::DrawClass;
use cycada_workloads::pages::WebPage;
use cycada_workloads::webkit::WebView;

const FRAMES: u32 = 8;

/// A PassMark-style complex-scene loop: rotating fans of triangles.
fn run_benchmark(app: &mut AppGl) -> Result<u64> {
    app.set_draw_class(DrawClass::ThreeD);
    let mut fragments = 0;
    for frame in 0..FRAMES {
        app.clear(0.02, 0.02, 0.1, 1.0)?;
        app.rotate(7.0 * frame as f32)?;
        for blade in 0..6 {
            let a = blade as f32 * 60.0_f32.to_radians();
            let tri = [0.0, 0.0, 0.0, a.cos() * 0.9, a.sin() * 0.9, 0.0,
                (a + 0.5).cos() * 0.9, (a + 0.5).sin() * 0.9, 0.0];
            fragments += app.draw(Primitive::Triangles, &tri, [0.9, 0.5, 0.1, 1.0])?;
        }
        app.present()?;
    }
    Ok(fragments)
}

/// A browsing loop: WebKit tile grid re-rendering a few sites.
fn run_browser(app: &mut AppGl) -> Result<usize> {
    let mut view = WebView::new(app)?;
    for site in ["google.com", "wikipedia.org", "apple.com", "youtube.com"] {
        view.render_page(app, &WebPage::for_site(site))?;
    }
    Ok(view.tile_count())
}

fn main() -> Result<()> {
    let device = CycadaDevice::boot_with_display(Some((320, 240)))?;
    println!("Device booted once: kernel + linker + GPU + SurfaceFlinger shared.");

    // Two apps attach; no second boot happens.
    let mut benchmark = AppGl::attach_cycada(&device, GlesVersion::V1)?;
    let mut browser = AppGl::attach_cycada(&device, GlesVersion::V2)?;
    println!(
        "Attached 2 sessions (tids {:?} / {:?}); {} DLR replicas back their contexts.",
        benchmark.session().main_tid(),
        browser.session().main_tid(),
        device.linker().replica_count(),
    );

    // Split the panel: benchmark on the left, browser on the right.
    benchmark.set_display_layer(Rect { x: 0, y: 0, w: 160, h: 240 })?;
    browser.set_display_layer(Rect { x: 160, y: 0, w: 160, h: 240 })?;

    let (fragments, tiles) = thread::scope(|s| -> Result<(u64, usize)> {
        let bench_thread = s.spawn(|| -> Result<u64> {
            let _scope = benchmark.session_scope();
            run_benchmark(&mut benchmark)
        });
        let browse_thread = s.spawn(|| -> Result<usize> {
            let _scope = browser.session_scope();
            run_browser(&mut browser)
        });
        Ok((
            bench_thread.join().expect("benchmark thread")?,
            browse_thread.join().expect("browser thread")?,
        ))
    })?;

    let display = device.kernel().display();
    println!(
        "\nBoth apps on one panel: {} frames latched, left pixel {:?}, right pixel {:?}",
        display.frames_presented(),
        display.pixel(80, 120),
        display.pixel(240, 120),
    );
    println!(
        "Benchmark session: {} fragments shaded, {} ns virtual time",
        fragments,
        benchmark.session_virtual_ns(),
    );
    println!(
        "Browser session:   {} tiles composited, {} ns virtual time",
        tiles,
        browser.session_virtual_ns(),
    );
    let stats = browser.session_stats().expect("cycada session stats");
    println!(
        "Browser's private figure data: {} glTexSubImage2D calls (benchmark made none).",
        stats.get("glTexSubImage2D").map_or(0, |r| r.calls),
    );
    println!("\nOK: two apps, one device, zero shared accounting.");
    Ok(())
}
