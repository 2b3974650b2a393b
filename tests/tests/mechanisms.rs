//! Integration tests for the paper's three OS mechanisms working together:
//! diplomat usage patterns, thread impersonation, and dynamic library
//! replication — plus the IOSurface lock/unlock dance.

use cycada::CycadaDevice;
use cycada_gles::GlesVersion;
use cycada_iosurface::SurfaceProps;
use cycada_sim::Persona;

fn device() -> CycadaDevice {
    CycadaDevice::boot_with_display(Some((96, 64))).unwrap()
}

#[test]
fn each_eagl_context_gets_its_own_dlr_replica() {
    let device = device();
    let tid = device.main_tid();
    let eagl = device.eagl();
    let linker = device.linker();

    // Establish the default process-wide connection first so the baseline
    // includes its vendor-library load.
    device.egl().initialize(tid).unwrap();
    let runs_before = linker.constructor_runs(cycada_egl::loadout::VENDOR_GLES_LIB);
    let a = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    let b = eagl.init_with_api(tid, GlesVersion::V1).unwrap();
    let runs_after = linker.constructor_runs(cycada_egl::loadout::VENDOR_GLES_LIB);

    // Two fresh vendor GLES instances — one DLR replica per EAGLContext.
    assert_eq!(runs_after - runs_before, 2);
    assert_ne!(
        eagl.connection(a).unwrap(),
        eagl.connection(b).unwrap(),
        "separate EGL-to-GLES connections"
    );
    // libui_wrapper was replicated per context (§8.2).
    assert!(linker.constructor_runs(cycada::LIBUI_WRAPPER) >= 2);
    // The paper's §8 headline: v1 and v2 contexts coexist in one process.
    assert_eq!(eagl.api(a).unwrap(), GlesVersion::V2);
    assert_eq!(eagl.api(b).unwrap(), GlesVersion::V1);
}

#[test]
fn game_plus_webkit_multi_version_scenario() {
    // "An iOS game may use GLES v1 APIs to render game graphics, but use a
    // WebKit view to render an HTML 'about' page which uses GLES v2 APIs."
    let device = device();
    let tid = device.main_tid();
    let eagl = device.eagl();
    let bridge = device.bridge();

    // WebKit's implicit v2 context.
    let webkit = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    // The game's v1 context.
    let game = eagl.init_with_api(tid, GlesVersion::V1).unwrap();

    // The game renders with v1 matrix calls...
    eagl.set_current_context(tid, Some(game)).unwrap();
    bridge.matrix_mode(tid, cycada_gles::MatrixMode::ModelView).unwrap();
    bridge.load_identity(tid).unwrap();
    bridge.rotatef(tid, 45.0, 0.0, 0.0, 1.0).unwrap();
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::NoError
    );

    // ...then switches to the WebKit view, whose v2 context rejects v1
    // matrix calls but accepts shaders.
    eagl.set_current_context(tid, Some(webkit)).unwrap();
    bridge.push_matrix(tid).unwrap();
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::InvalidOperation,
        "v1 call on the v2 context"
    );
    let shader = bridge.create_shader(tid).unwrap();
    assert_ne!(shader, 0);

    // And back to the game: its matrix stack survived untouched.
    eagl.set_current_context(tid, Some(game)).unwrap();
    bridge.pop_matrix(tid).unwrap();
    assert_eq!(
        bridge.get_error(tid).unwrap(),
        cycada_gles::GlError::InvalidOperation,
        "single-entry stack pops are still errors (state was preserved, not reset)"
    );
}

#[test]
fn worker_thread_uses_context_created_by_another_thread() {
    // The §7 scenario Android forbids: thread B uses a GLES context thread
    // A created. Cycada bridges it with impersonation + TLS migration.
    let device = device();
    let main = device.main_tid();
    let worker = device.spawn_thread().unwrap();
    let eagl = device.eagl();
    let bridge = device.bridge();

    let ctx = eagl.init_with_api(main, GlesVersion::V2).unwrap();
    eagl.set_current_context(main, Some(ctx)).unwrap();

    // The worker takes over the context (GCD-style async rendering).
    eagl.set_current_context(worker, Some(ctx)).unwrap();
    assert!(eagl.is_current_context(worker, ctx));

    // The worker can now issue GLES work on the shared context.
    let tex = bridge.gen_textures(worker, 1).unwrap()[0];
    bridge.bind_texture(worker, tex).unwrap();
    bridge
        .tex_image_2d(worker, 4, 4, cycada_gles::TexFormat::Rgba, None)
        .unwrap();
    assert_eq!(
        bridge.get_error(worker).unwrap(),
        cycada_gles::GlError::NoError
    );

    // Impersonation used the TLS migration syscalls.
    let counts = device.kernel().syscall_counts();
    assert!(counts.locate_tls > 0);
    assert!(counts.propagate_tls > 0);
}

#[test]
fn impersonation_migrates_both_personas() {
    let device = device();
    let main = device.main_tid();
    let worker = device.spawn_thread().unwrap();
    let engine = device.engine();
    let kernel = device.kernel();

    // Graphics TLS in both personas on the target (main) thread.
    engine.graphics_tls().register_well_known(Persona::Android, 20);
    kernel
        .tls_set_raw(main, Persona::Android, 20, Some(0xA))
        .unwrap();
    kernel
        .tls_set_raw(main, Persona::Ios, cycada::APPLE_GRAPHICS_TLS_SLOTS[0], Some(0xB))
        .unwrap();

    let guard = engine.impersonate(worker, main).unwrap();
    assert_eq!(
        kernel.tls_get_raw(worker, Persona::Android, 20).unwrap(),
        Some(0xA)
    );
    assert_eq!(
        kernel
            .tls_get_raw(worker, Persona::Ios, cycada::APPLE_GRAPHICS_TLS_SLOTS[0])
            .unwrap(),
        Some(0xB)
    );
    guard.finish().unwrap();
    assert_eq!(
        kernel.tls_get_raw(worker, Persona::Android, 20).unwrap(),
        None,
        "worker TLS restored"
    );
}

#[test]
fn iosurface_lock_dance_defeats_the_android_restriction() {
    let device = device();
    let tid = device.main_tid();
    let eagl = device.eagl();
    let bridge = device.bridge();
    let iosb = device.iosurface_bridge();

    // Need a current context for the GLES side of the dance.
    let ctx = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    eagl.set_current_context(tid, Some(ctx)).unwrap();

    // IOSurfaceCreate: backed by a GraphicBuffer via an indirect diplomat.
    let surface = iosb.create(tid, SurfaceProps::bgra(8, 8)).unwrap();
    let buffer = iosb.buffer_for(surface.id()).unwrap();
    assert!(
        buffer.image().buffer().same_allocation(surface.base_address()),
        "zero-copy: IOSurface and GraphicBuffer share memory"
    );

    // Bind to a GLES texture (glTexImageIOSurfaceAPPLE, a multi diplomat).
    let tex = bridge.gen_textures(tid, 1).unwrap()[0];
    iosb.tex_image_io_surface(tid, surface.id(), tex).unwrap();
    assert!(buffer.gles_association_count() > 0);
    // The raw Android rule would refuse a CPU lock right now.
    assert!(buffer.lock_cpu().is_err());

    // IOSurfaceLock: the multi diplomat rebinds the texture to a 1px
    // buffer, destroys the EGLImage, and locks.
    iosb.lock(tid, &surface).unwrap();
    assert!(buffer.is_cpu_locked());
    assert_eq!(buffer.gles_association_count(), 0);

    // CPU (CoreGraphics) draws into the surface while locked.
    surface.as_image().set_pixel(0, 0, cycada_gpu::Rgba::GREEN);

    // IOSurfaceUnlock: re-creates the EGLImage and rebinds.
    iosb.unlock(tid, &surface).unwrap();
    assert!(!buffer.is_cpu_locked());
    assert!(buffer.gles_association_count() > 0);

    // The CPU-drawn pixel is visible through the rebound GLES texture.
    let gles = device.egl().gles_for_thread(tid).unwrap();
    let tex_image = gles
        .context(device.egl().vendor_context(eagl_ctx_of(&device, ctx)).unwrap())
        .unwrap()
        .lock()
        .texture_image(tex)
        .unwrap();
    assert_eq!(tex_image.pixel_rgba(0, 0).to_bytes(), [0, 255, 0, 255]);

    // glDeleteTextures interposition drops the association (§6.1).
    bridge.delete_textures(tid, &[tex]).unwrap();
    assert_eq!(buffer.gles_association_count(), 0);
    buffer.lock_cpu().unwrap();
}

/// Helper: the EGL context behind an EAGL context.
fn eagl_ctx_of(device: &CycadaDevice, _ctx: cycada::EaglContextId) -> cycada_egl::EglContextId {
    // The EAGL context's EGL handle is internal; recover it via the
    // current-context binding.
    device
        .egl()
        .current_context(device.main_tid())
        .expect("context current")
}

#[test]
fn table2_totals_hold_at_runtime() {
    let t = cycada::Table2::compute();
    assert_eq!(
        (t.direct, t.indirect, t.data_dependent, t.multi, t.unimplemented),
        (312, 15, 5, 2, 10)
    );
}

#[test]
fn gralloc_buffers_do_not_leak_across_surface_release() {
    let device = device();
    let tid = device.main_tid();
    let eagl = device.eagl();
    let iosb = device.iosurface_bridge();

    let ctx = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    eagl.set_current_context(tid, Some(ctx)).unwrap();
    let live_before = device.gralloc().live_buffers();
    let surface = iosb.create(tid, SurfaceProps::bgra(8, 8)).unwrap();
    assert_eq!(device.gralloc().live_buffers(), live_before + 1);
    iosb.release(tid, &surface).unwrap();
    assert_eq!(device.gralloc().live_buffers(), live_before);
    assert_eq!(iosb.live_surfaces(), 0);
}
