//! Library images for the Android graphics stack.
//!
//! Registers the vendor dependency chain the paper names (§8.1): "the
//! NVIDIA graphics support library, `libGLESv2_tegra.so` requires the
//! `libnvrm.so` library which requires the `libnvos.so` library", plus the
//! vendor EGL, the shared libc, and the open-source `libEGL.so` front.

use std::sync::Arc;

use cycada_gles::{ApiFlavor, VendorGles};
use cycada_gpu::GpuDevice;
use cycada_gralloc::{GraphicBufferAllocator, GrallocDriver, SurfaceFlinger};
use cycada_kernel::Kernel;
use cycada_linker::{DynamicLinker, LibraryImage};

use crate::egl::AndroidEgl;
use crate::vendor_egl::VendorEglState;

/// The shared C library (never replicated).
pub const LIBC: &str = "libc.so";
/// NVIDIA OS-services library (bottom of the vendor chain).
pub const LIBNVOS: &str = "libnvos.so";
/// NVIDIA resource-manager library.
pub const LIBNVRM: &str = "libnvrm.so";
/// The vendor GLES library.
pub const VENDOR_GLES_LIB: &str = "libGLESv2_tegra.so";
/// The vendor EGL library.
pub const VENDOR_EGL_LIB: &str = "libEGL_tegra.so";
/// The open-source EGL front.
pub const LIBEGL: &str = "libEGL.so";

/// Registers the Android graphics library images with `linker`.
///
/// Constructors capture the GPU device (vendor GLES) and the kernel,
/// flinger and allocator (open-source EGL front), so every fresh instance
/// — including DLR replicas — builds real per-instance state.
pub fn register_android_graphics(
    linker: &Arc<DynamicLinker>,
    kernel: &Arc<Kernel>,
    gpu: &Arc<GpuDevice>,
    flinger: &Arc<SurfaceFlinger>,
    gralloc: &Arc<GrallocDriver>,
) {
    linker.register_image(
        LibraryImage::builder(LIBC)
            .symbols(["malloc", "free", "pthread_key_create", "pthread_key_delete"])
            .non_replicable()
            .build(),
    );
    linker.register_image(
        LibraryImage::builder(LIBNVOS)
            .deps([LIBC])
            .symbols(["NvOsAlloc", "NvOsFree"])
            .build(),
    );
    linker.register_image(
        LibraryImage::builder(LIBNVRM)
            .deps([LIBNVOS])
            .symbols(["NvRmOpen", "NvRmClose"])
            .build(),
    );
    let gpu_for_gles = gpu.clone();
    // The vendor GLES library exports the full Android GLES surface:
    // every standard v1/v2 function plus the Tegra extension functions.
    let registry = cycada_gles::GlesRegistry::global();
    let mut gles_symbols: Vec<String> = cycada_gles::registry::V1_STANDARD
        .iter()
        .chain(cycada_gles::registry::V2_STANDARD.iter())
        .map(|&s| s.to_owned())
        .collect();
    gles_symbols.sort_unstable();
    gles_symbols.dedup();
    for ext in registry.platform_extensions(ApiFlavor::Android) {
        gles_symbols.extend(ext.functions.iter().cloned());
    }
    linker.register_image(
        LibraryImage::builder(VENDOR_GLES_LIB)
            .deps([LIBNVRM])
            .symbols(gles_symbols)
            .constructor(move || {
                Arc::new(VendorGles::new(ApiFlavor::Android, gpu_for_gles.clone()))
            })
            .build(),
    );
    linker.register_image(
        LibraryImage::builder(VENDOR_EGL_LIB)
            .deps([VENDOR_GLES_LIB])
            .symbols(["eglInitialize", "eglCreateContext"])
            .constructor(|| Arc::new(VendorEglState::new()))
            .build(),
    );
    let (k, l, f) = (kernel.clone(), Arc::downgrade(linker), flinger.clone());
    let g = gralloc.clone();
    linker.register_image(
        LibraryImage::builder(LIBEGL)
            .deps([LIBC])
            .symbols([
                "eglInitialize",
                "eglCreateContext",
                "eglMakeCurrent",
                "eglSwapBuffers",
                "eglReInitializeMC",
                "eglSwitchMC",
                "eglGetTLSMC",
                "eglSetTLSMC",
            ])
            .non_replicable() // the front is shared; only vendor libs replicate
            .constructor(move || {
                Arc::new(AndroidEgl::new(
                    k.clone(),
                    l.clone(),
                    f.clone(),
                    GraphicBufferAllocator::new(k.clone(), g.clone()),
                ))
            })
            .build(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_gles::GlesVersion;
    use cycada_kernel::Persona;
    use cycada_sim::{Platform, VirtualClock};

    /// Builds a full simulated Android graphics stack and returns the
    /// pieces tests need.
    pub(crate) fn android_stack() -> (Arc<Kernel>, Arc<DynamicLinker>, Arc<AndroidEgl>) {
        let kernel = Arc::new(Kernel::for_platform(Platform::CycadaAndroid));
        let clock: VirtualClock = kernel.clock().clone();
        let gpu = Arc::new(GpuDevice::new(clock.clone(), kernel.profile().gpu.clone()));
        let flinger = Arc::new(SurfaceFlinger::new(kernel.display().clone(), gpu.clone()));
        let gralloc = GrallocDriver::new();
        kernel.register_driver(gralloc.clone());
        let linker = Arc::new(DynamicLinker::new(clock));
        register_android_graphics(&linker, &kernel, &gpu, &flinger, &gralloc);
        let egl = linker
            .dlopen(LIBEGL)
            .unwrap()
            .state::<AndroidEgl>()
            .unwrap();
        (kernel, linker, egl)
    }

    #[test]
    fn initialize_loads_vendor_chain() {
        let (kernel, linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        assert!(!egl.is_initialized());
        egl.initialize(tid).unwrap();
        assert!(egl.is_initialized());
        // The whole NVIDIA chain is now loaded, once each.
        for lib in [VENDOR_EGL_LIB, VENDOR_GLES_LIB, LIBNVRM, LIBNVOS] {
            assert!(linker.is_loaded(lib), "{lib} should be loaded");
            assert_eq!(linker.constructor_runs(lib), 1);
        }
        // Idempotent.
        egl.initialize(tid).unwrap();
        assert_eq!(linker.constructor_runs(VENDOR_GLES_LIB), 1);
    }

    #[test]
    fn context_and_surface_render_to_display() {
        let (kernel, _linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        let ctx = egl.create_context(tid, GlesVersion::V1).unwrap();
        let surface = egl.create_window_surface(tid, 64, 64).unwrap();
        egl.make_current(tid, Some(ctx), Some(surface)).unwrap();

        let gles = egl.gles_for_thread(tid).unwrap();
        gles.with_current(tid, |c| {
            c.clear_color(1.0, 0.0, 0.0, 1.0);
            c.clear(true, false);
        });
        let before = kernel.display().frames_presented();
        egl.swap_buffers(tid, surface).unwrap();
        assert_eq!(kernel.display().frames_presented(), before + 1);
        assert_eq!(kernel.display().pixel(10, 10), [255, 0, 0, 255]);
    }

    #[test]
    fn swap_buffers_alternates_buffers() {
        let (kernel, _linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        let ctx = egl.create_context(tid, GlesVersion::V1).unwrap();
        let surface = egl.create_window_surface(tid, 8, 8).unwrap();
        egl.make_current(tid, Some(ctx), Some(surface)).unwrap();
        let first_back = egl.surface_back_buffer(surface).unwrap();
        egl.swap_buffers(tid, surface).unwrap();
        let second_back = egl.surface_back_buffer(surface).unwrap();
        assert!(!first_back.same_buffer(&second_back));
        egl.swap_buffers(tid, surface).unwrap();
        let third_back = egl.surface_back_buffer(surface).unwrap();
        assert!(first_back.same_buffer(&third_back), "double buffering");
    }

    #[test]
    fn version_lock_blocks_second_version() {
        let (kernel, _linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        egl.create_context(tid, GlesVersion::V2).unwrap();
        // The paper's §8 failure: same process wants a v1 context too.
        assert!(matches!(
            egl.create_context(tid, GlesVersion::V1),
            Err(crate::EglError::BadMatch { .. })
        ));
    }

    #[test]
    fn thread_rule_enforced_and_leader_exempt() {
        let (kernel, _linker, egl) = android_stack();
        let main = kernel.spawn_process_main(Persona::Android).unwrap();
        let worker = kernel.spawn_thread(main, Persona::Android).unwrap();
        let worker2 = kernel.spawn_thread(main, Persona::Android).unwrap();
        egl.initialize(main).unwrap();

        // Context created by the main (group leader) thread: usable by all.
        let main_ctx = egl.create_context(main, GlesVersion::V2).unwrap();
        egl.make_current(worker, Some(main_ctx), None).unwrap();

        // Context created by a worker: only that worker may use it.
        let worker_ctx = egl.create_context(worker, GlesVersion::V2).unwrap();
        egl.make_current(worker, Some(worker_ctx), None).unwrap();
        assert!(matches!(
            egl.make_current(worker2, Some(worker_ctx), None),
            Err(crate::EglError::BadAccess { .. })
        ));
        assert!(matches!(
            egl.make_current(main, Some(worker_ctx), None),
            Err(crate::EglError::BadAccess { .. })
        ));
    }

    #[test]
    fn multi_context_extension_defeats_version_lock() {
        let (kernel, linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        let v2 = egl.create_context(tid, GlesVersion::V2).unwrap();

        // eglReInitializeMC forges a fresh replica connection...
        let conn = egl.egl_reinitialize_mc(tid, VENDOR_EGL_LIB).unwrap();
        assert_eq!(egl.current_connection_id(tid), conn);
        assert_eq!(egl.connection_count(), 2);
        assert_eq!(linker.constructor_runs(VENDOR_GLES_LIB), 2);
        // ...whose fresh version lock admits a v1 context in the same
        // process — the §8 scenario (game v1 + WebKit v2).
        let v1 = egl.create_context(tid, GlesVersion::V1).unwrap();
        assert_eq!(egl.context_version(v1).unwrap(), GlesVersion::V1);
        assert_eq!(egl.context_connection(v1).unwrap(), conn);
        assert_eq!(egl.context_connection(v2).unwrap(), 0);

        // eglSwitchMC flips the thread between connections.
        egl.egl_switch_mc(tid, v2).unwrap();
        assert_eq!(egl.current_connection_id(tid), 0);
        egl.egl_switch_mc(tid, v1).unwrap();
        assert_eq!(egl.current_connection_id(tid), conn);
    }

    #[test]
    fn mc_tls_values_migrate_between_threads() {
        let (kernel, _linker, egl) = android_stack();
        let main = kernel.spawn_process_main(Persona::Android).unwrap();
        let worker = kernel.spawn_thread(main, Persona::Android).unwrap();
        egl.initialize(main).unwrap();
        let conn = egl.egl_reinitialize_mc(main, VENDOR_EGL_LIB).unwrap();

        // The worker starts on the default connection.
        assert_eq!(egl.current_connection_id(worker), 0);
        // eglGetTLSMC / eglSetTLSMC copy the connection selection.
        let vals = egl.egl_get_tls_mc(main).unwrap();
        egl.egl_set_tls_mc(worker, &vals).unwrap();
        assert_eq!(egl.current_connection_id(worker), conn);
        // And clearing works.
        egl.egl_set_tls_mc(worker, &[None]).unwrap();
        assert_eq!(egl.current_connection_id(worker), 0);
    }

    #[test]
    fn release_mc_connection_unloads_replica() {
        let (kernel, linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        let conn = egl.egl_reinitialize_mc(tid, VENDOR_EGL_LIB).unwrap();
        assert_eq!(linker.replica_count(), 1);
        egl.release_mc_connection(conn).unwrap();
        assert_eq!(linker.replica_count(), 0);
        assert!(egl.release_mc_connection(conn).is_err());
        assert!(egl.release_mc_connection(0).is_err());
    }

    #[test]
    fn egl_image_association_lifecycle() {
        let (kernel, _linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        let ctx = egl.create_context(tid, GlesVersion::V2).unwrap();
        egl.make_current(tid, Some(ctx), None).unwrap();

        let buffer =
            cycada_gralloc::GraphicBuffer::new(77, 8, 8, cycada_gpu::PixelFormat::Rgba8888)
                .unwrap();
        let image = egl.create_image(&buffer);
        assert_eq!(buffer.gles_association_count(), 1);
        assert!(buffer.lock_cpu().is_err());

        // Bind to a texture: the texture holds its own clone of the source.
        let gles = egl.gles_for_thread(tid).unwrap();
        let source = egl.image_source(image).unwrap();
        let tex = gles.with_current(tid, |c| {
            let t = c.gen_textures(1)[0];
            c.bind_texture(t);
            c.egl_image_target_texture(source);
            t
        });
        egl.destroy_image(image).unwrap();
        // The texture still pins the association.
        assert_eq!(buffer.gles_association_count(), 1);
        // Rebinding the texture to a 1x1 buffer releases it (§6.2 dance).
        gles.with_current(tid, |c| {
            c.bind_texture(tex);
            c.tex_image_2d(1, 1, cycada_gles::TexFormat::Rgba, Some(&[0, 0, 0, 255]));
        });
        assert_eq!(buffer.gles_association_count(), 0);
        buffer.lock_cpu().unwrap();
    }

    #[test]
    fn uninitialized_operations_fail() {
        let (kernel, _linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        assert!(matches!(
            egl.create_context(tid, GlesVersion::V2),
            Err(crate::EglError::NotInitialized)
        ));
    }

    #[test]
    fn bad_handles_rejected() {
        let (kernel, _linker, egl) = android_stack();
        let tid = kernel.spawn_process_main(Persona::Android).unwrap();
        egl.initialize(tid).unwrap();
        assert!(matches!(
            egl.make_current(tid, Some(999), None),
            Err(crate::EglError::BadContext)
        ));
        assert!(matches!(
            egl.swap_buffers(tid, 999),
            Err(crate::EglError::BadSurface)
        ));
        assert!(egl.destroy_context(999).is_err());
        assert!(egl.destroy_surface(tid, 999).is_err());
        assert!(egl.image_source(999).is_err());
    }
}
