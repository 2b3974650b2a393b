//! Cycada's IOSurface support (§6).
//!
//! "Cycada interposes on `IOSurfaceCreate` using an indirect diplomat to
//! create an Android GraphicBuffer object as the underlying backing
//! graphics memory for an IOSurface" (§6.1), and interposes
//! `IOSurfaceLock`/`IOSurfaceUnlock` with **multi diplomats** that perform
//! the texture-disassociation dance of §6.2: while locked for CPU access,
//! the GLES texture is rebound to a single-pixel buffer so the EGLImage —
//! and with it the GraphicBuffer association — can be destroyed, making the
//! CPU lock legal under Android's rules; unlock re-creates the EGLImage and
//! rebinds, transparently to the iOS app's GLES.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use cycada_diplomat::{DiplomatEngine, DiplomatEntry, DiplomatPattern, FnId, HookKind};
use cycada_egl::{AndroidEgl, EglImageId};
use cycada_gles::TexFormat;
use cycada_gpu::PixelFormat;
use cycada_gralloc::{GraphicBuffer, GraphicBufferAllocator};
use cycada_iosurface::{IOSurface, IOSurfaceApi, SurfaceProps};
use cycada_kernel::SimTid;
use cycada_sim::fn_id;
use cycada_sim::intern::FnDense;

use crate::egl_bridge::{LIBEGLBRIDGE, LIBUI_WRAPPER};
use crate::error::CycadaError;
use crate::Result;

struct CycadaSurface {
    surface: IOSurface,
    buffer: GraphicBuffer,
    egl_image: Option<EglImageId>,
    texture: Option<u32>,
    renderbuffer: Option<u32>,
}

/// The Cycada IOSurface compatibility layer.
pub struct IoSurfaceBridge {
    engine: Arc<DiplomatEngine>,
    egl: Arc<AndroidEgl>,
    iosurface: Arc<IOSurfaceApi>,
    allocator: GraphicBufferAllocator,
    table: Mutex<HashMap<u64, CycadaSurface>>,
    entries: FnDense<OnceLock<Arc<DiplomatEntry>>>,
}

impl IoSurfaceBridge {
    /// Creates the bridge.
    pub fn new(
        engine: Arc<DiplomatEngine>,
        egl: Arc<AndroidEgl>,
        iosurface: Arc<IOSurfaceApi>,
        allocator: GraphicBufferAllocator,
    ) -> Self {
        IoSurfaceBridge {
            engine,
            egl,
            iosurface,
            allocator,
            table: Mutex::new(HashMap::new()),
            entries: FnDense::new(),
        }
    }

    fn entry(
        &self,
        id: FnId,
        library: &'static str,
        symbol: &'static str,
        pattern: DiplomatPattern,
    ) -> &Arc<DiplomatEntry> {
        self.entries.get_or_init(id, || {
            Arc::new(DiplomatEntry::with_id(
                id,
                library,
                symbol,
                pattern,
                HookKind::Gles,
            ))
        })
    }

    /// `IOSurfaceCreate`, interposed: an **indirect diplomat** allocates an
    /// Android GraphicBuffer as the backing memory, then the LinuxCoreSurface
    /// kernel service registers an IOSurface over that same memory.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Gralloc`]/[`CycadaError::IoSurface`] on
    /// allocation failure.
    pub fn create(&self, tid: SimTid, props: SurfaceProps) -> Result<IOSurface> {
        let entry = self.entry(
            fn_id!("IOSurfaceCreate"),
            LIBUI_WRAPPER,
            "ui_wrap_alloc_buffer",
            DiplomatPattern::Indirect,
        );
        // The GraphicBuffer is allocated wide enough to honour the
        // requested row stride.
        let bpp = props.format.bytes_per_pixel();
        let padded_width = (props.bytes_per_row / bpp) as u32;
        let allocator = &self.allocator;
        let buffer = self
            .engine
            .call(tid, entry, || {
                allocator.allocate(tid, padded_width.max(props.width), props.height, props.format)
            })
            .map_err(CycadaError::from)?
            .map_err(CycadaError::from)?;

        // Foreign side: register the IOSurface over the buffer's memory.
        let surface = self
            .iosurface
            .create(tid, props, Some(buffer.image().buffer().clone()))
            .map_err(CycadaError::from)?;
        self.table.lock().insert(
            surface.id(),
            CycadaSurface {
                surface: surface.clone(),
                buffer,
                egl_image: None,
                texture: None,
                renderbuffer: None,
            },
        );
        Ok(surface)
    }

    /// The GraphicBuffer backing a Cycada IOSurface.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::IoSurface`] for surfaces this bridge did not
    /// create.
    pub fn buffer_for(&self, surface_id: u64) -> Result<GraphicBuffer> {
        self.table
            .lock()
            .get(&surface_id)
            .map(|s| s.buffer.clone())
            .ok_or_else(|| CycadaError::IoSurface(format!("surface {surface_id} not bridged")))
    }

    /// `glTexImageIOSurfaceAPPLE` (multi diplomat): binds the surface's
    /// GraphicBuffer to `texture` through an EGLImage.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::IoSurface`] for unbridged surfaces or
    /// [`CycadaError::Egl`] if the thread has no current context.
    pub fn tex_image_io_surface(&self, tid: SimTid, surface_id: u64, texture: u32) -> Result<()> {
        let entry = self.entry(
            fn_id!("glTexImageIOSurfaceAPPLE"),
            LIBEGLBRIDGE,
            "glTexImageIOSurfaceAPPLE",
            DiplomatPattern::Multi,
        );
        let egl = self.egl.clone();
        let buffer = self.buffer_for(surface_id)?;
        let image_id = self
            .engine
            .call(tid, entry, || -> Result<EglImageId> {
                let image_id = egl.create_image(&buffer);
                let source = egl.image_source(image_id)?;
                let gles = egl.gles_for_thread(tid)?;
                gles.with_current(tid, |c| {
                    c.bind_texture(texture);
                    c.egl_image_target_texture(source);
                });
                Ok(image_id)
            })
            .map_err(CycadaError::from)??;
        let mut table = self.table.lock();
        let record = table
            .get_mut(&surface_id)
            .expect("record exists; buffer_for checked");
        record.egl_image = Some(image_id);
        record.texture = Some(texture);
        Ok(())
    }

    /// `glRenderbufferStorageIOSurfaceAPPLE` (multi diplomat): binds the
    /// surface's GraphicBuffer as the bound renderbuffer's storage — the
    /// EAGL drawable path.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::IoSurface`]/[`CycadaError::Egl`] as above.
    pub fn renderbuffer_storage_io_surface(
        &self,
        tid: SimTid,
        surface_id: u64,
        renderbuffer: u32,
    ) -> Result<()> {
        let entry = self.entry(
            fn_id!("glRenderbufferStorageIOSurfaceAPPLE"),
            LIBEGLBRIDGE,
            "glRenderbufferStorageIOSurfaceAPPLE",
            DiplomatPattern::Multi,
        );
        let egl = self.egl.clone();
        let buffer = self.buffer_for(surface_id)?;
        let image_id = self
            .engine
            .call(tid, entry, || -> Result<EglImageId> {
                let image_id = egl.create_image(&buffer);
                let source = egl.image_source(image_id)?;
                let gles = egl.gles_for_thread(tid)?;
                gles.with_current(tid, |c| {
                    c.bind_renderbuffer(renderbuffer);
                    c.egl_image_target_renderbuffer(source);
                });
                Ok(image_id)
            })
            .map_err(CycadaError::from)??;
        let mut table = self.table.lock();
        let record = table
            .get_mut(&surface_id)
            .expect("record exists; buffer_for checked");
        record.egl_image = Some(image_id);
        record.renderbuffer = Some(renderbuffer);
        Ok(())
    }

    /// `IOSurfaceLock`, interposed with a multi diplomat (§6.2): rebinds
    /// any connected GLES texture to a single-pixel buffer, destroys the
    /// EGLImage (implicitly disassociating the GraphicBuffer), CPU-locks
    /// the buffer, and finally locks the kernel surface.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Gralloc`] if the buffer is still associated
    /// (app violated IOSurface locking rules) or the lower layers fail.
    pub fn lock(&self, tid: SimTid, surface: &IOSurface) -> Result<()> {
        let entry = self.entry(
            fn_id!("IOSurfaceLock"),
            LIBEGLBRIDGE,
            "IOSurfaceLock",
            DiplomatPattern::Multi,
        );
        let egl = self.egl.clone();
        let (buffer, texture, egl_image) = {
            let table = self.table.lock();
            let record = table
                .get(&surface.id())
                .ok_or_else(|| CycadaError::IoSurface(format!("surface {} not bridged", surface.id())))?;
            (record.buffer.clone(), record.texture, record.egl_image)
        };
        self.engine
            .call(tid, entry, || -> Result<()> {
                if let Some(tex) = texture {
                    // "The multi diplomat rebinds the GLES texture to a
                    // single-pixel buffer allocated by glTexImage2D" —
                    // dropping the texture's hold on the EGLImage source.
                    let gles = egl.gles_for_thread(tid)?;
                    gles.with_current(tid, |c| {
                        c.bind_texture(tex);
                        c.tex_image_2d(1, 1, TexFormat::Rgba, Some(&[0, 0, 0, 255]));
                    });
                }
                if let Some(image) = egl_image {
                    // "The multi diplomat can then destroy the EGLImage
                    // object ... which implicitly disassociates the Android
                    // GraphicBuffer."
                    egl.destroy_image(image)?;
                }
                // "At this point, the GraphicBuffer can be locked for CPU
                // access."
                buffer.lock_cpu()?;
                Ok(())
            })
            .map_err(CycadaError::from)??;
        if let Some(record) = self.table.lock().get_mut(&surface.id()) {
            record.egl_image = None;
        }
        self.iosurface.lock(tid, surface).map_err(CycadaError::from)?;
        Ok(())
    }

    /// `IOSurfaceUnlock`, interposed with another multi diplomat: unlocks
    /// the GraphicBuffer, creates a new EGLImage and rebinds it (and the
    /// buffer) to the GLES texture — "the disassociation and re-association
    /// process is transparent to iOS's GLES."
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Gralloc`]/[`CycadaError::Egl`] on failure.
    pub fn unlock(&self, tid: SimTid, surface: &IOSurface) -> Result<()> {
        let entry = self.entry(
            fn_id!("IOSurfaceUnlock"),
            LIBEGLBRIDGE,
            "IOSurfaceUnlock",
            DiplomatPattern::Multi,
        );
        let egl = self.egl.clone();
        let (buffer, texture) = {
            let table = self.table.lock();
            let record = table
                .get(&surface.id())
                .ok_or_else(|| CycadaError::IoSurface(format!("surface {} not bridged", surface.id())))?;
            (record.buffer.clone(), record.texture)
        };
        let new_image = self
            .engine
            .call(tid, entry, || -> Result<Option<EglImageId>> {
                buffer.unlock_cpu()?;
                if let Some(tex) = texture {
                    let image_id = egl.create_image(&buffer);
                    let source = egl.image_source(image_id)?;
                    let gles = egl.gles_for_thread(tid)?;
                    gles.with_current(tid, |c| {
                        c.bind_texture(tex);
                        c.egl_image_target_texture(source);
                    });
                    Ok(Some(image_id))
                } else {
                    Ok(None)
                }
            })
            .map_err(CycadaError::from)??;
        if let Some(record) = self.table.lock().get_mut(&surface.id()) {
            record.egl_image = new_image;
        }
        self.iosurface.unlock(tid, surface).map_err(CycadaError::from)?;
        Ok(())
    }

    /// The `glDeleteTextures` interposition (§6.1): removes any connection
    /// between deleted textures and their underlying GraphicBuffers.
    pub fn drop_texture_associations(&self, names: &[u32]) {
        let mut table = self.table.lock();
        for record in table.values_mut() {
            if let Some(tex) = record.texture {
                if names.contains(&tex) {
                    if let Some(image) = record.egl_image.take() {
                        let _ = self.egl.destroy_image(image);
                    }
                    record.texture = None;
                }
            }
        }
    }

    /// Releases a bridged surface entirely (app-level release).
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::IoSurface`] for unbridged surfaces.
    pub fn release(&self, tid: SimTid, surface: &IOSurface) -> Result<()> {
        let record = self
            .table
            .lock()
            .remove(&surface.id())
            .ok_or_else(|| CycadaError::IoSurface(format!("surface {} not bridged", surface.id())))?;
        if let Some(image) = record.egl_image {
            let _ = self.egl.destroy_image(image);
        }
        let _ = self.allocator.free(tid, record.buffer.handle());
        self.iosurface
            .release(tid, &record.surface)
            .map_err(CycadaError::from)?;
        Ok(())
    }

    /// Number of live bridged surfaces.
    pub fn live_surfaces(&self) -> usize {
        self.table.lock().len()
    }

    /// Allocates a plain (non-IOSurface) GraphicBuffer through the
    /// indirect-diplomat path — used by EAGL for window back buffers.
    ///
    /// # Errors
    ///
    /// Returns [`CycadaError::Gralloc`] on allocation failure.
    pub fn allocate_plain_buffer(
        &self,
        tid: SimTid,
        width: u32,
        height: u32,
        format: PixelFormat,
    ) -> Result<GraphicBuffer> {
        let entry = self.entry(
            fn_id!("IOSurfaceCreate"),
            LIBUI_WRAPPER,
            "ui_wrap_alloc_buffer",
            DiplomatPattern::Indirect,
        );
        let allocator = &self.allocator;
        self.engine
            .call(tid, entry, || allocator.allocate(tid, width, height, format))
            .map_err(CycadaError::from)?
            .map_err(CycadaError::from)
    }
}

impl fmt::Debug for IoSurfaceBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IoSurfaceBridge")
            .field("live_surfaces", &self.live_surfaces())
            .finish()
    }
}
