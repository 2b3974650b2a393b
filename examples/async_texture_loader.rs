//! GCD-style asynchronous texture loading via thread impersonation (§7).
//!
//! iOS code routinely creates a GLES context on one thread and dispatches
//! texture-loading jobs to worker threads — "each thread ... implicitly
//! takes on the GLES and EAGL context of the thread that submitted the
//! asynchronous job." Android GLES forbids this pattern; Cycada makes it
//! work with thread impersonation and kernel TLS migration.

use cycada::CycadaDevice;
use cycada_gles::{GlesVersion, TexFormat};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = CycadaDevice::boot_with_display(Some((256, 160)))?;
    let main = device.main_tid();
    let eagl = device.eagl();
    let bridge = device.bridge();

    // Main thread: create the context and drawable (the render thread).
    let ctx = eagl.init_with_api(main, GlesVersion::V2)?;
    eagl.set_current_context(main, Some(ctx))?;
    let rb = eagl.renderbuffer_storage_from_drawable(main, ctx, 256, 160)?;
    let fbo = bridge.gen_framebuffers(main, 1)?[0];
    bridge.bind_framebuffer(main, fbo)?;
    bridge.framebuffer_renderbuffer(main, rb)?;
    println!("Main thread {main} created EAGLContext {ctx}.");

    // Dispatch async texture loads to worker "GCD" threads.
    let mut textures = Vec::new();
    for job in 0..3u8 {
        let worker = device.spawn_thread()?;
        // The worker implicitly takes on the submitting thread's context:
        // impersonation migrates the graphics TLS of both personas.
        eagl.set_current_context(worker, Some(ctx))?;
        let tex = bridge.gen_textures(worker, 1)?[0];
        bridge.bind_texture(worker, tex)?;
        let shade = 60 + job * 60;
        let pixels: Vec<u8> = (0..16 * 16)
            .flat_map(|_| [shade, 255 - shade, shade / 2, 255])
            .collect();
        bridge.tex_image_2d(worker, 16, 16, TexFormat::Rgba, Some(&pixels))?;
        println!("  worker {worker} loaded texture {tex} on the shared context");
        textures.push(tex);
    }

    // Back on the main thread: all worker-loaded textures are usable.
    let counts = device.kernel().syscall_counts();
    println!(
        "\nTLS migration syscalls: locate_tls={} propagate_tls={}",
        counts.locate_tls, counts.propagate_tls
    );
    bridge.clear_color(main, 0.0, 0.0, 0.0, 1.0)?;
    bridge.clear(main, true, false)?;
    for (i, &tex) in textures.iter().enumerate() {
        bridge.bind_texture(main, tex)?;
        // The texture image exists and is the right size — loaded by a
        // different thread, visible here.
        let egl_ctx = device.egl().current_context(main).expect("current");
        let vendor = device.egl().vendor_context(egl_ctx)?;
        let gles = device.egl().gles_for_thread(main)?;
        let image = gles
            .context(vendor)
            .expect("context")
            .lock()
            .texture_image(tex)
            .expect("texture has storage");
        println!("  main thread sees texture {tex}: {}x{}", image.width(), image.height());
        let _ = i;
    }
    eagl.present_renderbuffer(main, ctx)?;
    println!("\nOK: multi-threaded iOS GLES semantics on Android libraries.");
    Ok(())
}
