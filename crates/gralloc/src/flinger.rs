//! SurfaceFlinger: the Android compositor.
//!
//! Surfaces rendered by apps are "composited together by the Surface
//! Flinger which uses the HW Composer API and Linux kernel framebuffer
//! driver" (§2). Our compositor posts client buffers (or raw images) onto
//! the display scanout through the GPU's copy engine, charging realistic
//! composition costs — this is where `eglSwapBuffers`' expense comes from.
//!
//! Composition rides the raster fast plane (DESIGN.md §5b): an unscaled
//! same-format layer is one `copy_from_slice` per row under a single lock
//! pair, which is what a full-screen post onto the RGBA scanout hits.
//!
//! # Composition (DESIGN.md §5g)
//!
//! Every present recomposes in full: each queued blit is one
//! [`raster::blit_clipped`] onto the scanout, clipped to the panel.
//! There is no tile memo — EGL's front/back alternation means
//! consecutive posts come from different allocations, so nothing on the
//! present path is ever provably unchanged since the last frame.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cycada_gpu::raster::{self, Rect};
use cycada_gpu::{DrawClass, GpuDevice, Image};
use cycada_kernel::Display;
use cycada_sim::check::{self, Access};
use cycada_sim::slots::SlotTable;
use cycada_sim::trace;

use crate::buffer::GraphicBuffer;

/// Spins this many iterations on a `spin_loop` hint before falling back
/// to `yield_now` — publication windows are a handful of instructions,
/// so a short spin usually wins without burning a scheduler trip.
const SPIN_LIMIT: u32 = 64;

/// Spin-then-yield backoff for the present-path wait loops.
struct Backoff {
    spins: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff { spins: 0 }
    }

    fn wait(&mut self) {
        if self.spins < SPIN_LIMIT {
            self.spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The compositor for one display.
///
/// When several app sessions share a device, each window surface's buffers
/// can be assigned a **layer rectangle** ([`SurfaceFlinger::assign_layer`]);
/// posts of those buffers then compose into their rectangle instead of
/// covering the panel, so concurrent apps produce a deterministic scanout
/// (each owns disjoint pixels). Buffers with no assigned layer keep the
/// historical full-screen behaviour, byte-identical to a solo app.
///
/// Layer and composite rectangles may extend past the panel edge: the
/// logical rectangle keeps its role in the scaling arithmetic and the
/// writes are clipped to the panel (crop semantics), so nothing ever
/// touches memory outside the scanout.
pub struct SurfaceFlinger {
    display: Display,
    gpu: Arc<GpuDevice>,
    /// Per-handle layer assignments, sharded so presenters of different
    /// buffers never contend on a table-wide lock (DESIGN.md §5f).
    layers: SlotTable<Rect>,
    /// Next present-queue ticket (ticket order is application order).
    present_tickets: AtomicU64,
    /// Tickets fully applied to the scanout.
    present_drained: AtomicU64,
    /// Published-but-not-yet-applied frames, keyed by ticket.
    present_queue: SlotTable<Arc<PresentOp>>,
    /// Held by the one thread currently applying queued frames.
    /// Acquired only with `try_lock`: an uncontended presenter drains
    /// its own frame synchronously, a contended one enqueues and waits.
    drain_lock: Mutex<()>,
    /// Milliseconds the drainer waits for a claimed ticket's op to be
    /// published before concluding the enqueuer died mid-present (it
    /// panicked or was killed between claiming the ticket and
    /// publishing the op) and skipping the ticket. The live publication
    /// window is a handful of instructions, so the default is orders of
    /// magnitude beyond any reachable stall; tests of the skip path
    /// lower it via [`SurfaceFlinger::set_publish_deadline_ms`].
    publish_deadline_ms: AtomicU64,
}

/// Default [`SurfaceFlinger::set_publish_deadline_ms`] value.
const PUBLISH_DEADLINE_MS_DEFAULT: u64 = 5_000;

/// One blit of a queued frame. `clip` is `dst_rect ∩ panel`, computed
/// at enqueue: the only pixels the blit may write. `dst_rect` itself
/// may hang past the panel — it stays the *logical* destination so the
/// scaling arithmetic is unchanged by clipping.
struct Blit {
    src: Image,
    src_rect: Rect,
    dst_rect: Rect,
    clip: Rect,
}

/// One queued frame: the blits to apply onto the scanout, in order. All
/// virtual-time and statistics accounting already happened on the
/// enqueuing thread, so applying an op is pure byte work.
struct PresentOp {
    blits: Vec<Blit>,
    done: AtomicBool,
}

impl SurfaceFlinger {
    /// Creates a compositor for `display`, using `gpu` for composition.
    pub fn new(display: Display, gpu: Arc<GpuDevice>) -> Self {
        SurfaceFlinger {
            display,
            gpu,
            layers: SlotTable::new(),
            present_tickets: AtomicU64::new(0),
            present_drained: AtomicU64::new(0),
            present_queue: SlotTable::new(),
            drain_lock: Mutex::new(()),
            publish_deadline_ms: AtomicU64::new(PUBLISH_DEADLINE_MS_DEFAULT),
        }
    }

    /// Overrides the drainer's publication deadline. Test hook for
    /// exercising the dead-presenter skip path without a 5 s stall; not
    /// part of the supported API.
    #[doc(hidden)]
    pub fn set_publish_deadline_ms(&self, ms: u64) {
        self.publish_deadline_ms.store(ms.max(1), Ordering::Relaxed);
    }

    /// Claims a present ticket without ever publishing an op for it —
    /// the exact state a presenter leaves behind when it dies between
    /// `fetch_add` and the queue publish. Test hook; not part of the
    /// supported API.
    #[doc(hidden)]
    pub fn abandon_ticket_for_test(&self) -> u64 {
        self.present_tickets.fetch_add(1, Ordering::AcqRel)
    }

    /// The display being composed to.
    pub fn display(&self) -> &Display {
        &self.display
    }

    /// The GPU device composition is charged against.
    pub fn gpu(&self) -> &Arc<GpuDevice> {
        &self.gpu
    }

    /// The panel rectangle.
    fn panel(&self) -> Rect {
        Rect { x: 0, y: 0, w: self.display.width(), h: self.display.height() }
    }

    /// The scanout wrapped as an image (aliases the display's memory).
    fn scanout_image(&self) -> Image {
        Image::from_buffer(
            self.display.width(),
            self.display.height(),
            cycada_gpu::PixelFormat::Rgba8888,
            self.display.width() as usize * 4,
            self.display.scanout().clone(),
        )
    }

    /// Posts a full-screen image to the display (the swap-buffers path):
    /// scales/converts the image onto the scanout and latches the frame.
    pub fn post_image(&self, image: &Image) {
        let _tspan = trace::span(trace::Category::Gralloc, "flinger_post_image");
        trace::bump(trace::Counter::Compositions);
        let dst = self.panel();
        self.present(vec![(image.clone(), Rect::of_image(image), dst)]);
    }

    /// Assigns a destination rectangle to a buffer handle: subsequent
    /// posts of that buffer compose into the rectangle rather than
    /// covering the panel.
    ///
    /// The rectangle may extend past the panel edge; it is kept as the
    /// layer's logical geometry (so a post scales the buffer across the
    /// whole rectangle) and [`SurfaceFlinger::present`] clips every
    /// write to the panel — crop semantics, nothing out of bounds is
    /// ever touched.
    pub fn assign_layer(&self, handle: u64, rect: Rect) {
        check::schedule_point("flinger.layer", handle as usize, Access::Write);
        self.layers.set(handle, Some(rect));
    }

    /// Removes a buffer handle's layer assignment (posts become
    /// full-screen again).
    pub fn clear_layer(&self, handle: u64) {
        check::schedule_point("flinger.layer", handle as usize, Access::Write);
        self.layers.set(handle, None);
    }

    /// The layer rectangle assigned to a buffer handle, if any.
    pub fn layer_rect(&self, handle: u64) -> Option<Rect> {
        check::schedule_point("flinger.layer", handle as usize, Access::Read);
        self.layers.get(handle)
    }

    /// Posts a client GraphicBuffer (the HW Composer layer path). If the
    /// buffer has an assigned layer rectangle, it composes there;
    /// otherwise it covers the panel.
    pub fn post_buffer(&self, buffer: &GraphicBuffer) {
        match self.layer_rect(buffer.handle()) {
            Some(rect) => self.composite(&[(buffer.image(), rect)]),
            None => self.post_image(buffer.image()),
        }
    }

    /// Composites several layers back-to-front, then latches one frame.
    /// Each layer is placed at its destination rectangle (clipped to the
    /// panel at composition time).
    pub fn composite(&self, layers: &[(&Image, Rect)]) {
        let mut tspan = trace::span(trace::Category::Gralloc, "flinger_composite");
        tspan.set_arg(layers.len() as u64);
        trace::bump(trace::Counter::Compositions);
        let blits = layers
            .iter()
            .map(|(image, dst)| ((*image).clone(), Rect::of_image(image), *dst))
            .collect();
        self.present(blits);
    }

    /// Queues one frame and waits for it to reach the scanout.
    ///
    /// All accounting — per-layer copy cost, the fixed present cost, the
    /// frame counter — is charged here on the issuing thread **before**
    /// the frame is queued, so each session's virtual-time ledger is
    /// exactly what the old synchronous compositor produced no matter
    /// which thread ends up doing the byte work.
    /// The queue is a ticket sequence over a [`SlotTable`]; whoever wins
    /// `drain_lock` applies pending frames in ticket order while
    /// contended presenters spin-then-yield on their own frame's `done`
    /// flag (counted as [`trace::Counter::FlingerLockWaits`]).
    fn present(&self, blits: Vec<(Image, Rect, Rect)>) {
        for (_, src_rect, dst_rect) in &blits {
            self.gpu
                .charge_blit_pixels(GpuDevice::blit_pixels(*src_rect, *dst_rect), DrawClass::TwoD);
        }
        self.gpu.charge_present();
        self.display.frame_presented();

        let panel = self.panel();
        let blits = blits
            .into_iter()
            .map(|(src, src_rect, dst_rect)| Blit {
                src,
                src_rect,
                dst_rect,
                clip: dst_rect.intersect(&panel),
            })
            .collect();

        let ticket = self.present_tickets.fetch_add(1, Ordering::AcqRel);
        let op = Arc::new(PresentOp {
            blits,
            done: AtomicBool::new(false),
        });
        check::schedule_point("flinger.present", ticket as usize, Access::Write);
        self.present_queue.set(ticket, Some(op.clone()));
        self.drain();
        let mut contended = false;
        let mut backoff = Backoff::new();
        while !op.done.load(Ordering::Acquire) {
            // If the drain loop's publication deadline expired before our
            // op became visible, it skipped our ticket (presumed us dead
            // — see `drain`). The frame is dropped, not wedged: reclaim
            // the queue slot and return. All virtual-time accounting
            // already happened at enqueue, so the ledger is unaffected.
            if self.present_drained.load(Ordering::Acquire) > ticket
                && !op.done.load(Ordering::Acquire)
            {
                self.present_queue.set(ticket, None);
                return;
            }
            if !contended {
                contended = true;
                trace::bump(trace::Counter::FlingerLockWaits);
            }
            backoff.wait();
            // The drainer may have exited before our ticket became
            // visible; keep volunteering until our frame is applied.
            self.drain();
        }
    }

    /// Applies queued frames in ticket order if no other thread already
    /// is. Returns with the queue either empty or owned by another
    /// drainer that is guaranteed to observe any ticket published before
    /// this call.
    fn drain(&self) {
        loop {
            let Some(guard) = self.drain_lock.try_lock() else {
                return;
            };
            loop {
                let next = self.present_drained.load(Ordering::Acquire);
                if next >= self.present_tickets.load(Ordering::Acquire) {
                    break;
                }
                // The ticket is claimed before the op is published; wait
                // out the enqueuer's tiny publication window. The wait is
                // bounded: a presenter that died between claiming the
                // ticket and publishing (panic mid-present under session
                // teardown) would otherwise wedge every session sharing
                // this display, so after the publication deadline the
                // ticket is skipped and counted instead
                // (`present-teardown-skips`). The wall deadline is armed
                // lazily — the common published-immediately case never
                // reads the clock.
                let mut backoff = Backoff::new();
                let mut waited_since: Option<std::time::Instant> = None;
                let op = loop {
                    check::schedule_point("flinger.present", next as usize, Access::Read);
                    if let Some(op) = self.present_queue.get(next) {
                        break Some(op);
                    }
                    let since = *waited_since.get_or_insert_with(std::time::Instant::now);
                    if since.elapsed().as_millis() as u64
                        >= self.publish_deadline_ms.load(Ordering::Relaxed)
                    {
                        break None;
                    }
                    backoff.wait();
                };
                match op {
                    Some(op) => {
                        self.apply(&op);
                        op.done.store(true, Ordering::Release);
                        self.present_queue.set(next, None);
                    }
                    None => {
                        // Enqueuer presumed dead: skip-and-count. If it
                        // was merely stalled it detects the skip in its
                        // own wait loop (`present`) and reclaims the slot.
                        trace::bump(trace::Counter::PresentTeardownSkips);
                    }
                }
                self.present_drained.store(next + 1, Ordering::Release);
            }
            drop(guard);
            // A ticket published after our last emptiness check but before
            // the lock release would be stranded if its enqueuer lost the
            // try_lock race to us; recheck and re-volunteer.
            if self.present_drained.load(Ordering::Acquire)
                >= self.present_tickets.load(Ordering::Acquire)
            {
                return;
            }
        }
    }

    /// Applies one frame onto the scanout: every blit in order, each
    /// clipped to the panel (empty and off-panel blits write nothing).
    fn apply(&self, op: &PresentOp) {
        let scanout = self.scanout_image();
        for b in &op.blits {
            raster::blit_clipped(&b.src, b.src_rect, &scanout, b.dst_rect, b.clip);
        }
    }
}

impl fmt::Debug for SurfaceFlinger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SurfaceFlinger")
            .field("display", &self.display)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada_gpu::{PixelFormat, Rgba};
    use cycada_sim::{GpuCostModel, VirtualClock};

    fn flinger() -> SurfaceFlinger {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        SurfaceFlinger::new(Display::new(8, 8), gpu)
    }

    #[test]
    fn post_image_reaches_scanout() {
        let sf = flinger();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        frame.fill(Rgba::GREEN);
        sf.post_image(&frame);
        assert_eq!(sf.display().pixel(4, 4), [0, 255, 0, 255]);
        assert_eq!(sf.display().frames_presented(), 1);
    }

    #[test]
    fn post_scales_smaller_frames() {
        let sf = flinger();
        let frame = Image::new(2, 2, PixelFormat::Bgra8888);
        frame.fill(Rgba::RED);
        sf.post_image(&frame);
        assert_eq!(sf.display().pixel(7, 7), [255, 0, 0, 255]);
    }

    #[test]
    fn post_buffer_uses_buffer_pixels() {
        let sf = flinger();
        let buf = GraphicBuffer::new(1, 8, 8, PixelFormat::Rgba8888).unwrap();
        buf.image().fill(Rgba::BLUE);
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(0, 0), [0, 0, 255, 255]);
    }

    #[test]
    fn post_buffer_with_layer_composes_into_rect() {
        let sf = flinger();
        let whole = Image::new(8, 8, PixelFormat::Rgba8888);
        whole.fill(Rgba::WHITE);
        sf.post_image(&whole);
        let buf = GraphicBuffer::new(7, 4, 4, PixelFormat::Rgba8888).unwrap();
        buf.image().fill(Rgba::RED);
        sf.assign_layer(buf.handle(), Rect { x: 4, y: 0, w: 4, h: 4 });
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(5, 1), [255, 0, 0, 255], "inside layer");
        assert_eq!(sf.display().pixel(1, 1), [255, 255, 255, 255], "outside untouched");
        assert_eq!(sf.display().frames_presented(), 2);
        sf.clear_layer(buf.handle());
        assert_eq!(sf.layer_rect(buf.handle()), None);
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(1, 7), [255, 0, 0, 255], "full-screen again");
    }

    #[test]
    fn composite_places_layers() {
        let sf = flinger();
        let bg = Image::new(8, 8, PixelFormat::Rgba8888);
        bg.fill(Rgba::WHITE);
        let badge = Image::new(2, 2, PixelFormat::Rgba8888);
        badge.fill(Rgba::RED);
        sf.composite(&[
            (&bg, Rect { x: 0, y: 0, w: 8, h: 8 }),
            (&badge, Rect { x: 6, y: 6, w: 2, h: 2 }),
        ]);
        assert_eq!(sf.display().pixel(0, 0), [255, 255, 255, 255]);
        assert_eq!(sf.display().pixel(7, 7), [255, 0, 0, 255]);
        assert_eq!(sf.display().frames_presented(), 1);
    }

    #[test]
    fn layer_rect_past_panel_edge_is_cropped() {
        // Regression: a layer hanging past the scanout edge used to
        // panic inside the raster blit's bounds assert; it must now
        // crop — pixels inside the panel composed with unchanged
        // scaling arithmetic, nothing else touched.
        let sf = flinger();
        let bg = Image::new(8, 8, PixelFormat::Rgba8888);
        bg.fill(Rgba::WHITE);
        sf.post_image(&bg);
        let buf = GraphicBuffer::new(9, 4, 4, PixelFormat::Rgba8888).unwrap();
        buf.image().fill(Rgba::BLUE);
        // 8-wide rect starting at x=6 on an 8-wide panel: 6 columns hang off.
        sf.assign_layer(buf.handle(), Rect { x: 6, y: 2, w: 8, h: 8 });
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(6, 3), [0, 0, 255, 255], "cropped layer shows");
        assert_eq!(sf.display().pixel(5, 3), [255, 255, 255, 255], "left of layer untouched");
        assert_eq!(sf.display().pixel(6, 1), [255, 255, 255, 255], "above layer untouched");
        assert_eq!(sf.display().frames_presented(), 2);

        // Fully off-panel layers are inert, not a panic.
        sf.assign_layer(buf.handle(), Rect { x: 20, y: 20, w: 4, h: 4 });
        sf.post_buffer(&buf);
        assert_eq!(sf.display().pixel(6, 3), [0, 0, 255, 255], "scanout unchanged");
    }

    #[test]
    fn concurrent_disjoint_posts_latch_every_frame() {
        // Four presenters own one quadrant each of a 16x16 panel and post
        // concurrently through the ticketed present queue. Every frame
        // must latch, and each quadrant must end with its owner's color
        // (disjoint rects commute, so any ticket order is correct).
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        let sf = Arc::new(SurfaceFlinger::new(Display::new(16, 16), gpu));
        let colors = [Rgba::RED, Rgba::GREEN, Rgba::BLUE, Rgba::WHITE];
        const POSTS: usize = 25;
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sf = sf.clone();
                let color = colors[i as usize];
                std::thread::spawn(move || {
                    let buf = GraphicBuffer::new(i + 1, 8, 8, PixelFormat::Rgba8888).unwrap();
                    buf.image().fill(color);
                    let rect = Rect {
                        x: (i as u32 % 2) * 8,
                        y: (i as u32 / 2) * 8,
                        w: 8,
                        h: 8,
                    };
                    sf.assign_layer(buf.handle(), rect);
                    for _ in 0..POSTS {
                        sf.post_buffer(&buf);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sf.display().frames_presented(), 4 * POSTS as u64);
        for (i, color) in colors.iter().enumerate() {
            let (x, y) = ((i as u32 % 2) * 8 + 3, (i as u32 / 2) * 8 + 3);
            assert_eq!(sf.display().pixel(x, y), color.to_bytes(), "quadrant {i}");
        }
    }

    #[test]
    fn dead_presenter_ticket_is_skipped_not_wedged() {
        // A presenter that dies between claiming its ticket and
        // publishing its op used to wedge the drain loop (and with it
        // every session sharing the display) forever. The drainer must
        // now skip the abandoned ticket after the publication deadline,
        // count it, and keep latching later frames.
        let sf = flinger();
        sf.set_publish_deadline_ms(10);
        let before = trace::counter(trace::Counter::PresentTeardownSkips);
        sf.abandon_ticket_for_test();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        frame.fill(Rgba::GREEN);
        sf.post_image(&frame); // would hang before the fix
        assert_eq!(sf.display().pixel(4, 4), [0, 255, 0, 255], "later frame still latches");
        assert!(
            trace::counter(trace::Counter::PresentTeardownSkips) > before,
            "the abandoned ticket is counted"
        );
    }

    #[test]
    fn composition_charges_gpu_time() {
        let sf = flinger();
        let frame = Image::new(8, 8, PixelFormat::Rgba8888);
        let before = sf.gpu.clock().now_ns();
        sf.post_image(&frame);
        assert!(sf.gpu.clock().now_ns() > before);
    }

    #[test]
    fn repeat_posts_keep_the_frame() {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        let sf = SurfaceFlinger::new(Display::new(64, 64), gpu);
        let bg = Image::new(64, 64, PixelFormat::Rgba8888);
        bg.fill(Rgba::WHITE);
        sf.post_image(&bg);
        sf.post_image(&bg);
        assert_eq!(sf.display().pixel(1, 1), [255, 255, 255, 255]);
    }

    #[test]
    fn covering_layer_hides_lower_layer() {
        let gpu = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
        let sf = SurfaceFlinger::new(Display::new(64, 64), gpu);
        let below = Image::new(64, 64, PixelFormat::Rgba8888);
        below.fill(Rgba::RED);
        let above = Image::new(64, 64, PixelFormat::Rgba8888);
        above.fill(Rgba::GREEN);
        sf.composite(&[
            (&below, Rect { x: 0, y: 0, w: 64, h: 64 }),
            (&above, Rect { x: 0, y: 0, w: 64, h: 64 }),
        ]);
        assert_eq!(sf.display().pixel(32, 32), [0, 255, 0, 255], "top layer wins");
    }
}
