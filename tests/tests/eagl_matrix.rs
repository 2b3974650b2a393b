//! Table-driven matrix over all 17 EAGL methods: each method is driven
//! through three scenarios — valid use from the creating thread,
//! wrong-thread use (a second iOS thread adopts the context, which
//! exercises the impersonation path inside `setCurrentContext:`), and
//! use after full context teardown (`Eagl::destroy_context`). The
//! table is asserted to cover exactly the [`EAGL_METHODS`] census, so
//! adding an 18th method without a matrix row fails the suite.

use cycada::{CycadaDevice, EAGL_METHODS};
use cycada_gles::GlesVersion;
use cycada_iosurface::SurfaceProps;
use cycada_kernel::SimTid;

const SMALL: Option<(u32, u32)> = Some((64, 48));

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Created and called from the session main thread.
    Valid,
    /// Called from a second iOS thread that adopted the context via
    /// `setCurrentContext:` (thread impersonation underneath, §7).
    WrongThread,
    /// Called with a context id that has been fully destroyed.
    Teardown,
}

struct Rig {
    device: CycadaDevice,
    caller: SimTid,
    ctx: u32,
    scenario: Scenario,
}

fn rig(scenario: Scenario) -> Rig {
    let device = CycadaDevice::boot_with_display(SMALL).unwrap();
    let main = device.main_tid();
    let eagl = device.eagl().clone();
    let ctx = eagl.init_with_api(main, GlesVersion::V2).unwrap();
    let caller = match scenario {
        Scenario::Valid => {
            eagl.set_current_context(main, Some(ctx)).unwrap();
            main
        }
        Scenario::WrongThread => {
            let tid2 = device.spawn_thread().unwrap();
            // The iOS pattern: one thread creates the context, another
            // adopts and uses it. Adoption migrates the replica
            // connection TLS via impersonation of the creator.
            eagl.set_current_context(tid2, Some(ctx)).unwrap();
            tid2
        }
        Scenario::Teardown => {
            eagl.set_current_context(main, Some(ctx)).unwrap();
            eagl.destroy_context(main, ctx).unwrap();
            main
        }
    };
    Rig {
        device,
        caller,
        ctx,
        scenario,
    }
}

/// Expects `Ok` while the context lives and `Err` once it is gone.
fn live_only<T, E: std::fmt::Debug>(r: &Rig, what: &str, res: Result<T, E>) -> Result<(), String> {
    match (r.scenario, res) {
        (Scenario::Teardown, Ok(_)) => Err(format!("{what}: expected error after teardown")),
        (Scenario::Teardown, Err(_)) => Ok(()),
        (_, Ok(_)) => Ok(()),
        (_, Err(e)) => Err(format!("{what}: unexpected error {e:?}")),
    }
}

/// Gives the rig's context a drawable-backed framebuffer from the
/// calling thread (the `presentRenderbuffer:` precondition).
fn setup_drawable(r: &Rig) -> Result<(), String> {
    let eagl = r.device.eagl();
    let bridge = r.device.bridge();
    let rb = eagl
        .renderbuffer_storage_from_drawable(r.caller, r.ctx, 64, 48)
        .map_err(|e| format!("storage: {e:?}"))?;
    let fbo = bridge.gen_framebuffers(r.caller, 1).map_err(|e| format!("{e:?}"))?[0];
    bridge.bind_framebuffer(r.caller, fbo).map_err(|e| format!("{e:?}"))?;
    bridge.framebuffer_renderbuffer(r.caller, rb).map_err(|e| format!("{e:?}"))?;
    Ok(())
}

type MethodDrive = fn(&Rig) -> Result<(), String>;

/// One row per EAGL method, in [`EAGL_METHODS`] order.
const MATRIX: &[(&str, MethodDrive)] = &[
    ("initWithAPI:sharegroup:", |r| {
        // Creating a fresh context never depends on an existing one.
        let id = r
            .device
            .eagl()
            .init_with_api_sharegroup(r.caller, GlesVersion::V1, 3)
            .map_err(|e| format!("{e:?}"))?;
        r.device.eagl().destroy_context(r.caller, id).map_err(|e| format!("{e:?}"))
    }),
    ("setCurrentContext:", |r| {
        let res = r.device.eagl().set_current_context(r.caller, Some(r.ctx));
        live_only(r, "setCurrentContext:", res)?;
        if r.scenario != Scenario::Teardown
            && r.device.eagl().current_context(r.caller) != Some(r.ctx)
        {
            return Err("context not current after setCurrentContext:".into());
        }
        Ok(())
    }),
    ("renderbufferStorage:fromDrawable:", |r| {
        let res = r
            .device
            .eagl()
            .renderbuffer_storage_from_drawable(r.caller, r.ctx, 64, 48);
        live_only(r, "renderbufferStorage:fromDrawable:", res)
    }),
    ("presentRenderbuffer:", |r| {
        if r.scenario != Scenario::Teardown {
            setup_drawable(r)?;
        }
        let res = r.device.eagl().present_renderbuffer(r.caller, r.ctx);
        live_only(r, "presentRenderbuffer:", res)
    }),
    ("texImageIOSurface:", |r| {
        // Surface/texture scoped, not record scoped: works as long as
        // the calling thread has *a* current context — after tearing
        // down the rig context, a fresh one restores service.
        if r.scenario == Scenario::Teardown {
            let fresh = r
                .device
                .eagl()
                .init_with_api(r.caller, GlesVersion::V2)
                .map_err(|e| format!("{e:?}"))?;
            r.device
                .eagl()
                .set_current_context(r.caller, Some(fresh))
                .map_err(|e| format!("{e:?}"))?;
        }
        let surface = r
            .device
            .iosurface_bridge()
            .create(r.caller, SurfaceProps::bgra(16, 16))
            .map_err(|e| format!("{e:?}"))?;
        let tex = r.device.bridge().gen_textures(r.caller, 1).map_err(|e| format!("{e:?}"))?[0];
        r.device
            .eagl()
            .tex_image_io_surface(r.caller, &surface, tex)
            .map_err(|e| format!("{e:?}"))
    }),
    ("deleteDrawable", |r| {
        if r.scenario != Scenario::Teardown {
            setup_drawable(r)?;
        }
        let res = r.device.eagl().delete_drawable(r.caller, r.ctx);
        live_only(r, "deleteDrawable", res)
    }),
    ("initWithAPI:", |r| {
        let id = r
            .device
            .eagl()
            .init_with_api(r.caller, GlesVersion::V1)
            .map_err(|e| format!("{e:?}"))?;
        r.device.eagl().destroy_context(r.caller, id).map_err(|e| format!("{e:?}"))
    }),
    ("currentContext", |r| {
        let cur = r.device.eagl().current_context(r.caller);
        match r.scenario {
            // destroy_context clears currency on every thread.
            Scenario::Teardown if cur.is_some() => {
                Err("destroyed context still current".into())
            }
            Scenario::Valid | Scenario::WrongThread if cur != Some(r.ctx) => {
                Err(format!("expected ctx {} current, got {cur:?}", r.ctx))
            }
            _ => Ok(()),
        }
    }),
    ("API", |r| {
        let res = r.device.eagl().api(r.ctx);
        live_only(r, "API", res.clone())?;
        if r.scenario != Scenario::Teardown && res.unwrap() != GlesVersion::V2 {
            return Err("API reported the wrong GLES version".into());
        }
        Ok(())
    }),
    ("sharegroup", |r| {
        live_only(r, "sharegroup", r.device.eagl().sharegroup(r.ctx))
    }),
    ("isCurrentContext", |r| {
        let is = r.device.eagl().is_current_context(r.caller, r.ctx);
        let expect = r.scenario != Scenario::Teardown;
        if is == expect {
            Ok(())
        } else {
            Err(format!("isCurrentContext = {is}, expected {expect}"))
        }
    }),
    ("isMultiThreaded", |r| {
        live_only(r, "isMultiThreaded", r.device.eagl().is_multi_threaded(r.ctx))
    }),
    ("setMultiThreaded:", |r| {
        live_only(r, "setMultiThreaded:", r.device.eagl().set_multi_threaded(r.ctx, true))
    }),
    ("debugLabel", |r| {
        live_only(r, "debugLabel", r.device.eagl().debug_label(r.ctx))
    }),
    ("swapInterval", |r| {
        live_only(r, "swapInterval", r.device.eagl().swap_interval(r.ctx))
    }),
    ("setSwapInterval:", |r| {
        live_only(r, "setSwapInterval:", r.device.eagl().set_swap_interval(r.ctx, 2))
    }),
    ("setDebugLabel:", |r| {
        // The one never-called method: unimplemented in every scenario.
        match r.device.eagl().set_debug_label(r.ctx, "label") {
            Err(_) => Ok(()),
            Ok(()) => Err("setDebugLabel: should be unimplemented".into()),
        }
    }),
];

#[test]
fn matrix_covers_exactly_the_17_census_methods() {
    assert_eq!(MATRIX.len(), EAGL_METHODS.len());
    for ((row, _), (name, _)) in MATRIX.iter().zip(EAGL_METHODS.iter()) {
        assert_eq!(row, name, "matrix row order must match the census");
    }
}

#[test]
fn all_methods_valid_use() {
    for (name, drive) in MATRIX {
        let r = rig(Scenario::Valid);
        drive(&r).unwrap_or_else(|e| panic!("{name} (valid): {e}"));
    }
}

#[test]
fn all_methods_from_a_wrong_thread_under_impersonation() {
    for (name, drive) in MATRIX {
        let r = rig(Scenario::WrongThread);
        drive(&r).unwrap_or_else(|e| panic!("{name} (wrong thread): {e}"));
    }
}

#[test]
fn all_methods_after_context_teardown() {
    for (name, drive) in MATRIX {
        let r = rig(Scenario::Teardown);
        drive(&r).unwrap_or_else(|e| panic!("{name} (after teardown): {e}"));
    }
}

#[test]
fn destroy_context_releases_the_replica_connection() {
    let device = CycadaDevice::boot_with_display(SMALL).unwrap();
    let main = device.main_tid();
    let eagl = device.eagl();
    let ctx = eagl.init_with_api(main, GlesVersion::V1).unwrap();
    let with_replica = device.egl().connection_count();
    eagl.set_current_context(main, Some(ctx)).unwrap();
    eagl.renderbuffer_storage_from_drawable(main, ctx, 64, 48)
        .unwrap();
    eagl.destroy_context(main, ctx).unwrap();
    assert_eq!(
        device.egl().connection_count(),
        with_replica - 1,
        "DLR replica connection must be released on teardown"
    );
    assert!(eagl.api(ctx).is_err(), "record must be gone");
    assert_eq!(eagl.current_context(main), None);
}
