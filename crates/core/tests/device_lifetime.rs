//! A dropped device frees itself: once the last handle to a device goes,
//! nothing keeps its kernel, dynamic linker or GPU alive. `libEGL.so`'s
//! library state lives in the linker's default namespace, so it may hold
//! the linker only weakly.

use std::sync::{Arc, Weak};

use cycada::{AndroidDevice, AppGl, CycadaDevice, IosDevice};
use cycada_gles::GlesVersion;
use cycada_gpu::GpuDevice;
use cycada_kernel::Kernel;
use cycada_linker::DynamicLinker;
use cycada_sim::Platform;

const SMALL: Option<(u32, u32)> = Some((16, 16));

/// Weak handles to the three device-wide owners.
struct Handles {
    kernel: Weak<Kernel>,
    linker: Weak<DynamicLinker>,
    gpu: Weak<GpuDevice>,
}

impl Handles {
    fn of(kernel: &Arc<Kernel>, linker: &Arc<DynamicLinker>, gpu: &Arc<GpuDevice>) -> Self {
        Handles {
            kernel: Arc::downgrade(kernel),
            linker: Arc::downgrade(linker),
            gpu: Arc::downgrade(gpu),
        }
    }

    fn assert_freed(&self, what: &str) {
        assert!(self.kernel.upgrade().is_none(), "{what}: kernel still alive");
        assert!(self.linker.upgrade().is_none(), "{what}: linker still alive");
        assert!(self.gpu.upgrade().is_none(), "{what}: GPU still alive");
    }
}

#[test]
fn bare_cycada_device_is_freed() {
    let device = CycadaDevice::boot_with_display(SMALL).unwrap();
    let handles = Handles::of(device.kernel(), device.linker(), device.gpu());
    drop(device);
    handles.assert_freed("bare CycadaDevice");
}

#[test]
fn cycada_device_is_freed_after_an_app_detaches() {
    let device = CycadaDevice::boot_with_display(SMALL).unwrap();
    let handles = Handles::of(device.kernel(), device.linker(), device.gpu());
    let app = AppGl::attach_cycada(&device, GlesVersion::V1).unwrap();
    app.clear(0.0, 1.0, 0.0, 1.0).unwrap();
    drop(app);
    drop(device);
    handles.assert_freed("CycadaDevice after AppGl");
}

#[test]
fn android_devices_with_a_session_are_freed() {
    for platform in [Platform::StockAndroid, Platform::CycadaAndroid] {
        let device = AndroidDevice::boot_with_display(platform, SMALL).unwrap();
        let handles = Handles::of(device.kernel(), device.linker(), device.gpu());
        let session = device.attach_session().unwrap();
        drop(session);
        drop(device);
        handles.assert_freed(&format!("AndroidDevice {platform:?}"));
    }
}

#[test]
fn ios_device_is_freed() {
    let device = IosDevice::boot_with_display(SMALL).unwrap();
    let handles = Handles::of(device.kernel(), device.linker(), device.gpu());
    drop(device);
    handles.assert_freed("IosDevice");
}
