//! Device/process assembly for the four evaluation platforms.
//!
//! Each platform is split into two planes (DESIGN.md §5c):
//!
//! * a **device** layer — kernel, linker, GPU, gralloc/SurfaceFlinger,
//!   CoreSurface, diplomat engine and vendor libraries — booted once and
//!   shared by every app on the device, and
//! * a **session** layer — one app's process (main thread plus any spawned
//!   threads), its EGL/EAGL contexts and surfaces, and its private
//!   virtual-time/stats scope — cheap to attach, many per device.
//!
//! Booting a device also attaches a *primary* session, so the historical
//! one-app-per-device API (`boot()` + `main_tid()`) is unchanged and
//! byte-identical in cost. Additional apps call `attach_session()`.

use std::fmt;
use std::sync::Arc;

use cycada_diplomat::{DiplomatEngine, StatsScopeGuard};
use cycada_egl::loadout::{register_android_graphics, LIBEGL};
use cycada_egl::AndroidEgl;
use cycada_gpu::GpuDevice;
use cycada_gralloc::{GraphicBufferAllocator, GrallocDriver, SurfaceFlinger};
use cycada_iosurface::{CoreSurfaceService, IOSurfaceApi};
use cycada_kernel::{Kernel, Persona, SimTid};
use cycada_linker::DynamicLinker;
use cycada_sim::stats::FunctionStats;
use cycada_sim::{MeterGuard, Nanos, Platform, SessionMeter};

use crate::bridge::GlesBridge;
use crate::eagl::Eagl;
use crate::egl_bridge::{register_bridge_libraries, EglBridge};
use crate::error::CycadaError;
use crate::iosurface_bridge::IoSurfaceBridge;
use crate::native_ios::{register_ios_display, register_ios_graphics, NativeIosStack};
use crate::Result;

/// Well-known iOS TLS slots reserved by Apple graphics libraries, migrated
/// during impersonation (§7.1: "We also migrate well-known iOS TLS slots
/// used by Apple graphics libraries").
pub const APPLE_GRAPHICS_TLS_SLOTS: &[usize] = &[5, 6, 7];

/// Live scope of one session on the calling host thread: virtual time
/// charged and diplomat calls made while the guard is alive are credited to
/// the session's meter and stats.
///
/// Drive each session's frames from its own host thread with a scope open;
/// the per-session totals are then independent of how sessions interleave
/// on the shared device.
#[must_use = "the session only accumulates while the scope is alive"]
#[derive(Debug)]
pub struct SessionScope {
    _stats: Option<StatsScopeGuard>,
    _meter: MeterGuard,
}

/// The shared (booted-once) layer of a Cycada device: everything below the
/// app process in Figure 3.
pub struct CycadaShared {
    kernel: Arc<Kernel>,
    gpu: Arc<GpuDevice>,
    linker: Arc<DynamicLinker>,
    flinger: Arc<SurfaceFlinger>,
    gralloc: Arc<GrallocDriver>,
    coresurface: Arc<CoreSurfaceService>,
    engine: Arc<DiplomatEngine>,
    egl: Arc<AndroidEgl>,
    bridge: Arc<GlesBridge>,
    egl_bridge: Arc<EglBridge>,
    iosurface_bridge: Arc<IoSurfaceBridge>,
    eagl: Arc<Eagl>,
}

impl fmt::Debug for CycadaShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CycadaShared")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// One app attached to a shared device: its process, the persona its
/// threads start in, and its private accounting scope. The same type serves
/// every platform; only Cycada iOS sessions record per-diplomat stats.
#[derive(Clone, Debug)]
pub struct Session {
    kernel: Arc<Kernel>,
    persona: Persona,
    main_tid: SimTid,
    meter: SessionMeter,
    stats: Option<FunctionStats>,
}

impl Session {
    fn attach(
        kernel: &Arc<Kernel>,
        persona: Persona,
        stats: Option<FunctionStats>,
    ) -> Result<Self> {
        let main_tid = kernel.spawn_process_main(persona)?;
        Ok(Session {
            kernel: kernel.clone(),
            persona,
            main_tid,
            meter: SessionMeter::new(),
            stats,
        })
    }

    /// The session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.main_tid
    }

    /// Spawns another thread in this session's thread group, in the
    /// session's persona.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        Ok(self.kernel.spawn_thread(self.main_tid, self.persona)?)
    }

    /// Opens the session's accounting scope on the calling host thread.
    pub fn scope(&self) -> SessionScope {
        SessionScope {
            _stats: self.stats.clone().map(DiplomatEngine::enter_stats_scope),
            _meter: self.meter.enter(),
        }
    }

    /// Virtual nanoseconds charged inside this session's scopes so far.
    pub fn virtual_ns(&self) -> Nanos {
        self.meter.total_ns()
    }

    /// Per-diplomat stats recorded inside this session's scopes (Cycada
    /// iOS only).
    pub fn stats(&self) -> Option<&FunctionStats> {
        self.stats.as_ref()
    }

    /// The kernel of the device this session is attached to.
    pub(crate) fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }
}

/// A booted Cycada device (the paper's Nexus 7 running the modified
/// Android) hosting iOS processes: the complete graphics compatibility
/// architecture of Figure 3.
///
/// Cloning is cheap (the platform layer is shared); every clone sees the
/// same device and the same primary session.
#[derive(Clone)]
pub struct CycadaDevice {
    shared: Arc<CycadaShared>,
    primary: Session,
}

impl CycadaDevice {
    /// Boots the device and starts an iOS process on it.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails (should
    /// not happen on a Cycada kernel).
    pub fn boot() -> Result<Self> {
        Self::boot_with_display(None)
    }

    /// Boots with an overridden display size (small displays keep tests
    /// fast; benchmarks use the device's native panel).
    ///
    /// # Errors
    ///
    /// As [`CycadaDevice::boot`].
    pub fn boot_with_display(display: Option<(u32, u32)>) -> Result<Self> {
        let mut profile = cycada_sim::DeviceProfile::for_platform(Platform::CycadaIos);
        if let Some((w, h)) = display {
            profile.display_width = w;
            profile.display_height = h;
        }
        let kernel = Arc::new(Kernel::with_profile(profile));
        let gpu = Arc::new(GpuDevice::new(
            kernel.clock().clone(),
            kernel.profile().gpu.clone(),
        ));
        let flinger = Arc::new(SurfaceFlinger::new(kernel.display().clone(), gpu.clone()));
        let gralloc = GrallocDriver::new();
        kernel.register_driver(gralloc.clone());
        // LinuxCoreSurface: the reverse-engineered IOCoreSurface
        // reimplementation inside the Android kernel (§6).
        let coresurface = CoreSurfaceService::new();
        kernel.register_service(coresurface.clone());

        let linker = Arc::new(DynamicLinker::new(kernel.clock().clone()));
        register_android_graphics(&linker, &kernel, &gpu, &flinger, &gralloc);
        register_bridge_libraries(&linker);

        let egl = linker
            .dlopen(LIBEGL)
            .map_err(CycadaError::from)?
            .state::<AndroidEgl>()
            .ok_or_else(|| CycadaError::Egl("libEGL has wrong state type".into()))?;

        let engine = DiplomatEngine::new(kernel.clone(), linker.clone());
        for &slot in APPLE_GRAPHICS_TLS_SLOTS {
            engine.graphics_tls().register_well_known(Persona::Ios, slot);
        }

        let bridge = Arc::new(GlesBridge::new(engine.clone(), egl.clone()));
        let egl_bridge = Arc::new(EglBridge::new(engine.clone(), egl.clone()));
        let iosurface_api = Arc::new(IOSurfaceApi::new(kernel.clone()));
        let iosurface_bridge = Arc::new(IoSurfaceBridge::new(
            engine.clone(),
            egl.clone(),
            iosurface_api,
            GraphicBufferAllocator::new(kernel.clone(), gralloc.clone()),
        ));
        let hook_target = iosurface_bridge.clone();
        bridge.set_delete_textures_hook(move |names| hook_target.drop_texture_associations(names));

        let display = kernel.display();
        let eagl = Arc::new(Eagl::new(
            egl.clone(),
            bridge.clone(),
            egl_bridge.clone(),
            iosurface_bridge.clone(),
            (display.width(), display.height()),
        ));

        let shared = Arc::new(CycadaShared {
            kernel,
            gpu,
            linker,
            flinger,
            gralloc,
            coresurface,
            engine,
            egl,
            bridge,
            egl_bridge,
            iosurface_bridge,
            eagl,
        });
        let primary = Session::attach(&shared.kernel, Persona::Ios, Some(FunctionStats::new()))?;
        Ok(CycadaDevice { shared, primary })
    }

    /// Attaches another app session: a fresh process (its own thread group)
    /// on the already-booted shared stack. Orders of magnitude cheaper than
    /// [`CycadaDevice::boot`].
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails.
    pub fn attach_session(&self) -> Result<Session> {
        Session::attach(&self.shared.kernel, Persona::Ios, Some(FunctionStats::new()))
    }

    /// The primary session attached at boot.
    pub fn primary_session(&self) -> &Session {
        &self.primary
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The GPU device.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.shared.gpu
    }

    /// The DLR-enabled dynamic linker.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.shared.linker
    }

    /// The diplomat engine (stats, impersonation).
    pub fn engine(&self) -> &Arc<DiplomatEngine> {
        &self.shared.engine
    }

    /// The diplomatic GLES library (iOS GLES API surface).
    pub fn bridge(&self) -> &Arc<GlesBridge> {
        &self.shared.bridge
    }

    /// libEGLbridge.
    pub fn egl_bridge(&self) -> &Arc<EglBridge> {
        &self.shared.egl_bridge
    }

    /// The IOSurface bridge.
    pub fn iosurface_bridge(&self) -> &Arc<IoSurfaceBridge> {
        &self.shared.iosurface_bridge
    }

    /// The EAGL implementation.
    pub fn eagl(&self) -> &Arc<Eagl> {
        &self.shared.eagl
    }

    /// The open-source Android EGL front.
    pub fn egl(&self) -> &Arc<AndroidEgl> {
        &self.shared.egl
    }

    /// The SurfaceFlinger compositor.
    pub fn flinger(&self) -> &Arc<SurfaceFlinger> {
        &self.shared.flinger
    }

    /// The gralloc driver (leak checks).
    pub fn gralloc(&self) -> &Arc<GrallocDriver> {
        &self.shared.gralloc
    }

    /// The LinuxCoreSurface kernel module.
    pub fn coresurface(&self) -> &Arc<CoreSurfaceService> {
        &self.shared.coresurface
    }

    /// The primary session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.primary.main_tid
    }

    /// Spawns another iOS thread in the primary session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        self.primary.spawn_thread()
    }
}

impl fmt::Debug for CycadaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CycadaDevice")
            .field("kernel", &self.shared.kernel)
            .finish()
    }
}

/// The shared layer of an Android device: the normal EGL/GLES stack.
pub struct AndroidShared {
    kernel: Arc<Kernel>,
    gpu: Arc<GpuDevice>,
    linker: Arc<DynamicLinker>,
    flinger: Arc<SurfaceFlinger>,
    gralloc: Arc<GrallocDriver>,
    egl: Arc<AndroidEgl>,
}

impl fmt::Debug for AndroidShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AndroidShared")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// A booted Android device (stock or Cycada kernel) hosting Android
/// processes using the normal EGL/GLES stack.
#[derive(Clone)]
pub struct AndroidDevice {
    shared: Arc<AndroidShared>,
    primary: Session,
}

impl AndroidDevice {
    /// Boots an Android device.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Egl`] if the stack cannot initialize, or
    /// [`CycadaError::UnsupportedPlatform`] for non-Android platforms.
    pub fn boot(platform: Platform) -> Result<Self> {
        Self::boot_with_display(platform, None)
    }

    /// Boots with an overridden display size.
    ///
    /// # Errors
    ///
    /// As [`AndroidDevice::boot`].
    pub fn boot_with_display(platform: Platform, display: Option<(u32, u32)>) -> Result<Self> {
        if !matches!(platform, Platform::StockAndroid | Platform::CycadaAndroid) {
            return Err(CycadaError::UnsupportedPlatform(format!(
                "AndroidDevice cannot boot {platform:?}"
            )));
        }
        let mut profile = cycada_sim::DeviceProfile::for_platform(platform);
        if let Some((w, h)) = display {
            profile.display_width = w;
            profile.display_height = h;
        }
        let kernel = Arc::new(Kernel::with_profile(profile));
        let gpu = Arc::new(GpuDevice::new(
            kernel.clock().clone(),
            kernel.profile().gpu.clone(),
        ));
        let flinger = Arc::new(SurfaceFlinger::new(kernel.display().clone(), gpu.clone()));
        let gralloc = GrallocDriver::new();
        kernel.register_driver(gralloc.clone());
        let linker = Arc::new(DynamicLinker::new(kernel.clock().clone()));
        register_android_graphics(&linker, &kernel, &gpu, &flinger, &gralloc);
        let egl = linker
            .dlopen(LIBEGL)
            .map_err(CycadaError::from)?
            .state::<AndroidEgl>()
            .ok_or_else(|| CycadaError::Egl("libEGL has wrong state type".into()))?;
        let shared = Arc::new(AndroidShared {
            kernel,
            gpu,
            linker,
            flinger,
            gralloc,
            egl,
        });
        let primary = Self::attach(&shared)?;
        Ok(AndroidDevice { shared, primary })
    }

    /// Spawns the app process, then initializes EGL on its main thread.
    fn attach(shared: &AndroidShared) -> Result<Session> {
        let session = Session::attach(&shared.kernel, Persona::Android, None)?;
        shared.egl.initialize(session.main_tid)?;
        Ok(session)
    }

    /// Attaches another app session on the already-booted shared stack.
    ///
    /// Android sessions share the default EGL connection (the
    /// single-connection restriction of §8 — only Cycada's
    /// `EGL_multi_context` lifts it), so all sessions on one device must
    /// speak the same locked GLES version.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails.
    pub fn attach_session(&self) -> Result<Session> {
        Self::attach(&self.shared)
    }

    /// The primary session attached at boot.
    pub fn primary_session(&self) -> &Session {
        &self.primary
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The GPU device.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.shared.gpu
    }

    /// The dynamic linker.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.shared.linker
    }

    /// The Android EGL front.
    pub fn egl(&self) -> &Arc<AndroidEgl> {
        &self.shared.egl
    }

    /// The SurfaceFlinger compositor.
    pub fn flinger(&self) -> &Arc<SurfaceFlinger> {
        &self.shared.flinger
    }

    /// The gralloc driver.
    pub fn gralloc(&self) -> &Arc<GrallocDriver> {
        &self.shared.gralloc
    }

    /// The primary session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.primary.main_tid
    }

    /// Spawns another Android thread in the primary session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        self.primary.spawn_thread()
    }
}

impl fmt::Debug for AndroidDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AndroidDevice")
            .field("kernel", &self.shared.kernel)
            .finish()
    }
}

/// The shared layer of an iPad mini.
pub struct IosShared {
    kernel: Arc<Kernel>,
    gpu: Arc<GpuDevice>,
    linker: Arc<DynamicLinker>,
    stack: Arc<NativeIosStack>,
}

impl fmt::Debug for IosShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IosShared")
            .field("kernel", &self.kernel)
            .finish()
    }
}

/// A booted iPad mini running iOS apps natively.
#[derive(Clone)]
pub struct IosDevice {
    shared: Arc<IosShared>,
    primary: Session,
}

impl IosDevice {
    /// Boots the iPad.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the stack cannot initialize.
    pub fn boot() -> Result<Self> {
        Self::boot_with_display(None)
    }

    /// Boots with an overridden display size.
    ///
    /// # Errors
    ///
    /// As [`IosDevice::boot`].
    pub fn boot_with_display(display: Option<(u32, u32)>) -> Result<Self> {
        let mut profile = cycada_sim::DeviceProfile::for_platform(Platform::NativeIos);
        if let Some((w, h)) = display {
            profile.display_width = w;
            profile.display_height = h;
        }
        let kernel = Arc::new(Kernel::with_profile(profile));
        let gpu = Arc::new(GpuDevice::new(
            kernel.clock().clone(),
            kernel.profile().gpu.clone(),
        ));
        let coresurface = CoreSurfaceService::new();
        kernel.register_service(coresurface.clone());
        register_ios_display(&kernel, &gpu, &coresurface);
        let linker = Arc::new(DynamicLinker::new(kernel.clock().clone()));
        register_ios_graphics(&linker, &gpu);
        let stack = Arc::new(NativeIosStack::new(kernel.clone(), &linker, coresurface)?);
        let shared = Arc::new(IosShared {
            kernel,
            gpu,
            linker,
            stack,
        });
        let primary = Session::attach(&shared.kernel, Persona::Ios, None)?;
        Ok(IosDevice { shared, primary })
    }

    /// Attaches another app session on the already-booted shared stack.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if process creation fails.
    pub fn attach_session(&self) -> Result<Session> {
        Session::attach(&self.shared.kernel, Persona::Ios, None)
    }

    /// The primary session attached at boot.
    pub fn primary_session(&self) -> &Session {
        &self.primary
    }

    /// The simulated kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.shared.kernel
    }

    /// The GPU device.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.shared.gpu
    }

    /// The dynamic linker.
    pub fn linker(&self) -> &Arc<DynamicLinker> {
        &self.shared.linker
    }

    /// The native iOS graphics stack.
    pub fn stack(&self) -> &Arc<NativeIosStack> {
        &self.shared.stack
    }

    /// The primary session's main thread.
    pub fn main_tid(&self) -> SimTid {
        self.primary.main_tid
    }

    /// Spawns another iOS thread in the primary session's thread group.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Kernel`] if the group leader exited.
    pub fn spawn_thread(&self) -> Result<SimTid> {
        self.primary.spawn_thread()
    }
}

impl fmt::Debug for IosDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IosDevice")
            .field("kernel", &self.shared.kernel)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every platform's sessions spawn threads in that platform's persona,
    /// inside the session's own thread group.
    #[test]
    fn session_threads_take_the_platform_persona_and_the_session_group() {
        const SMALL: Option<(u32, u32)> = Some((4, 4));
        let cycada = CycadaDevice::boot_with_display(SMALL).unwrap();
        let stock = AndroidDevice::boot_with_display(Platform::StockAndroid, SMALL).unwrap();
        let cycada_android =
            AndroidDevice::boot_with_display(Platform::CycadaAndroid, SMALL).unwrap();
        let ios = IosDevice::boot_with_display(SMALL).unwrap();
        let cases = [
            (cycada.primary_session().clone(), cycada.attach_session().unwrap(), Persona::Ios),
            (stock.primary_session().clone(), stock.attach_session().unwrap(), Persona::Android),
            (
                cycada_android.primary_session().clone(),
                cycada_android.attach_session().unwrap(),
                Persona::Android,
            ),
            (ios.primary_session().clone(), ios.attach_session().unwrap(), Persona::Ios),
        ];
        for (primary, attached, persona) in cases {
            let kernel = primary.kernel().clone();
            for session in [primary, attached] {
                let tid = session.spawn_thread().unwrap();
                assert_eq!(kernel.current_persona(tid).unwrap(), persona);
                assert_eq!(
                    kernel.thread_group(tid).unwrap(),
                    kernel.thread_group(session.main_tid()).unwrap(),
                );
            }
        }
    }
}
