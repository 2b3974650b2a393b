//! EAGL API surface tests: the 17 methods, the GCD dispatch semantics, and
//! the native-iOS counterpart.

use cycada::{CycadaDevice, DispatchQueue, IosDevice};
use cycada_gles::{GlesVersion, TexFormat};

fn device() -> CycadaDevice {
    CycadaDevice::boot_with_display(Some((96, 64))).unwrap()
}

#[test]
fn scratch_methods_work() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();

    let ctx = eagl.init_with_api_sharegroup(tid, GlesVersion::V2, 7).unwrap();
    assert_eq!(eagl.api(ctx).unwrap(), GlesVersion::V2);
    assert_eq!(eagl.sharegroup(ctx).unwrap(), 7);

    assert_eq!(eagl.current_context(tid), None);
    eagl.set_current_context(tid, Some(ctx)).unwrap();
    assert_eq!(eagl.current_context(tid), Some(ctx));
    assert!(eagl.is_current_context(tid, ctx));
    eagl.set_current_context(tid, None).unwrap();
    assert_eq!(eagl.current_context(tid), None);

    assert!(!eagl.is_multi_threaded(ctx).unwrap());
    eagl.set_multi_threaded(ctx, true).unwrap();
    assert!(eagl.is_multi_threaded(ctx).unwrap());

    assert_eq!(eagl.debug_label(ctx).unwrap(), None);
    assert_eq!(eagl.swap_interval(ctx).unwrap(), 1);
    eagl.set_swap_interval(ctx, 2).unwrap();
    assert_eq!(eagl.swap_interval(ctx).unwrap(), 2);
}

#[test]
fn set_debug_label_is_the_never_called_method() {
    let dev = device();
    let tid = dev.main_tid();
    let ctx = dev.eagl().init_with_api(tid, GlesVersion::V1).unwrap();
    let err = dev.eagl().set_debug_label(ctx, "game").unwrap_err();
    assert!(err.to_string().contains("unimplemented"));
}

#[test]
fn unknown_context_handles_error_cleanly() {
    let dev = device();
    let eagl = dev.eagl();
    assert!(eagl.api(999).is_err());
    assert!(eagl.sharegroup(999).is_err());
    assert!(eagl.is_multi_threaded(999).is_err());
    assert!(eagl.set_multi_threaded(999, true).is_err());
    assert!(eagl.swap_interval(999).is_err());
    assert!(eagl.drawable_image(999).is_err());
    assert!(eagl
        .set_current_context(dev.main_tid(), Some(999))
        .is_err());
    assert!(eagl
        .present_renderbuffer(dev.main_tid(), 999)
        .is_err());
}

#[test]
fn present_without_drawable_errors() {
    let dev = device();
    let tid = dev.main_tid();
    let ctx = dev.eagl().init_with_api(tid, GlesVersion::V1).unwrap();
    dev.eagl().set_current_context(tid, Some(ctx)).unwrap();
    let err = dev.eagl().present_renderbuffer(tid, ctx).unwrap_err();
    assert!(err.to_string().contains("drawable"));
}

#[test]
fn delete_drawable_releases_the_iosurface() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    eagl.set_current_context(tid, Some(ctx)).unwrap();
    eagl.renderbuffer_storage_from_drawable(tid, ctx, 32, 32)
        .unwrap();
    assert_eq!(dev.iosurface_bridge().live_surfaces(), 1);
    eagl.delete_drawable(tid, ctx).unwrap();
    assert_eq!(dev.iosurface_bridge().live_surfaces(), 0);
    assert!(eagl.drawable_image(ctx).is_err());
}

#[test]
fn drawable_storage_without_a_current_context_errors_and_releases_the_iosurface() {
    let dev = device();
    let tid = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(tid, GlesVersion::V2).unwrap();
    // `ctx` is never made current on `tid`, so no renderbuffer name can
    // be generated for the drawable.
    let err = eagl
        .renderbuffer_storage_from_drawable(tid, ctx, 32, 32)
        .unwrap_err();
    assert!(matches!(err, cycada::CycadaError::Eagl(_)), "{err}");
    assert_eq!(dev.iosurface_bridge().live_surfaces(), 0);
    assert_eq!(dev.coresurface().live_surfaces(), 0);
    assert!(eagl.drawable_image(ctx).is_err());
}

#[test]
fn gcd_jobs_adopt_the_submitters_context() {
    let dev = device();
    let main = dev.main_tid();
    let eagl = dev.eagl();
    let bridge = dev.bridge();

    let ctx = eagl.init_with_api(main, GlesVersion::V2).unwrap();
    eagl.set_current_context(main, Some(ctx)).unwrap();

    let queue = DispatchQueue::new(&dev, "com.example.texture-loader");
    // Async texture loading on a GCD worker — the §7 WebKit/GCD pattern.
    let tex = queue
        .dispatch_sync(main, |worker| {
            assert!(eagl.is_current_context(worker, ctx), "implicit adoption");
            let tex = bridge.gen_textures(worker, 1).unwrap()[0];
            bridge.bind_texture(worker, tex).unwrap();
            bridge
                .tex_image_2d(worker, 4, 4, TexFormat::Rgba, None)
                .unwrap();
            tex
        })
        .unwrap();

    // The texture loaded by the worker is visible from the main thread.
    bridge.bind_texture(main, tex).unwrap();
    bridge
        .tex_sub_image_2d(main, 0, 0, 1, 1, TexFormat::Rgba, &[1, 2, 3, 255])
        .unwrap();
    assert_eq!(
        bridge.get_error(main).unwrap(),
        cycada_gles::GlError::NoError
    );
    assert_eq!(queue.idle_workers(), 1, "worker returned to the pool");
}

#[test]
fn gcd_workers_are_pooled_and_reused() {
    let dev = device();
    let main = dev.main_tid();
    let eagl = dev.eagl();
    let ctx = eagl.init_with_api(main, GlesVersion::V1).unwrap();
    eagl.set_current_context(main, Some(ctx)).unwrap();

    let queue = DispatchQueue::new(&dev, "serial");
    let first = queue.dispatch_sync(main, |w| w).unwrap();
    let second = queue.dispatch_sync(main, |w| w).unwrap();
    assert_eq!(first, second, "serial dispatch reuses the pooled worker");

    let results = queue
        .dispatch_apply(
            main,
            vec![
                Box::new(|w| w) as Box<dyn FnOnce(_) -> _ + Send>,
                Box::new(|w| w),
                Box::new(|w| w),
            ],
        )
        .unwrap();
    assert_eq!(results.len(), 3);
}

#[test]
fn native_ios_allows_multiple_versions_without_dlr() {
    // The freedom Android lacks: on real iOS, no replication is needed.
    let dev = IosDevice::boot_with_display(Some((96, 64))).unwrap();
    let tid = dev.main_tid();
    let stack = dev.stack();
    let v1 = stack.init_with_api(GlesVersion::V1);
    let v2 = stack.init_with_api(GlesVersion::V2);
    assert_eq!(stack.api(v1).unwrap(), GlesVersion::V1);
    assert_eq!(stack.api(v2).unwrap(), GlesVersion::V2);
    stack.set_current_context(tid, Some(v1)).unwrap();
    stack.set_current_context(tid, Some(v2)).unwrap();

    // And any thread can use any context.
    let worker = dev.spawn_thread().unwrap();
    stack.set_current_context(worker, Some(v1)).unwrap();

    // No replicas were created anywhere.
    assert_eq!(dev.linker().replica_count(), 0);
}

#[test]
fn eagl_method_census_is_6_10_1() {
    assert_eq!(cycada::Eagl::method_census(), (6, 10, 1));
}
