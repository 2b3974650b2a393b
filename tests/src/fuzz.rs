//! Differential GLES conformance fuzzing.
//!
//! A seeded generator produces random GLES call scripts — one or two
//! contexts on a shared device (exercising EGL_multi_context / DLR when
//! the contexts use different GLES versions), clears, colored and
//! textured draws, transform-stack churn, capability toggles, flushes
//! and presents. Each script is executed two ways:
//!
//! 1. **Diplomat path** — [`AppGl::attach_cycada`] sessions on a booted
//!    [`CycadaDevice`]: every call crosses the diplomatic bridge,
//!    persona switches, the replica vendor stack, and the span
//!    rasterizer.
//! 2. **Reference path** — a bare [`GlesContext`] per script context on
//!    a private [`GpuDevice`] with
//!    [`GpuDevice::set_reference_raster`] enabled, so every draw runs
//!    the per-pixel executable-specification rasterizer.
//!
//! The differ asserts byte-identical canonical-RGBA framebuffers and
//! equal per-draw fragment counts, then re-runs the diplomat path on a
//! fresh device and asserts the metered virtual time, pixels and
//! scanout repeat exactly — the determinism contract the figure
//! regenerators rely on.
//!
//! Failures shrink with a ddmin-style [`shrink`] pass to a minimal
//! script that still fails, printed in replayable form.

use std::fmt;
use std::sync::Arc;

use cycada::{AppGl, CycadaDevice};
use cycada_gles::{
    ApiFlavor, Capability, ClientState, GlesContext, GlesVersion, Primitive, TexFormat,
};
use cycada_gpu::math::Mat4;
use cycada_gpu::{GpuDevice, Image, PixelFormat};
use cycada_sim::{GpuCostModel, Nanos, SimRng, VirtualClock};

/// Framebuffer size used by every fuzz case (small keeps 200 cases
/// fast).
pub const WIDTH: u32 = 64;
/// See [`WIDTH`].
pub const HEIGHT: u32 = 48;

/// One GLES call (or short canned call sequence) against a single
/// context. Texture references are *slot indices* into the list of
/// textures created so far on that context; an out-of-range slot makes
/// the op a no-op on both executors, which keeps every subsequence of a
/// script executable — the property the shrinker relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum GlOp {
    /// `glClearColor` + `glClear(COLOR|DEPTH)`.
    Clear {
        /// Clear color.
        rgba: [f32; 4],
    },
    /// A colored primitive draw (the [`AppGl::draw`] call shape).
    Draw {
        /// Primitive topology.
        mode: Primitive,
        /// Flat `[x, y, z]*` vertex array.
        xyz: Vec<f32>,
        /// Flat color.
        color: [f32; 4],
    },
    /// Create an 8x8 texture from deterministic pixel data.
    CreateTexture {
        /// Texel format.
        format: TexFormat,
    },
    /// `glTexSubImage2D` into a previously created texture slot.
    UpdateTexture {
        /// Texture slot (index into the context's created textures).
        slot: usize,
        /// Sub-rect x within the 8x8 texture.
        x: u32,
        /// Sub-rect y.
        y: u32,
        /// Sub-rect width.
        w: u32,
        /// Sub-rect height.
        h: u32,
    },
    /// Textured quad via `glDrawArrays` (the WebKit tile path).
    TexQuad {
        /// Texture slot.
        slot: usize,
        /// `[x0, y0, x1, y1]` in NDC.
        rect: [f32; 4],
    },
    /// Textured quad via `glDrawElements`.
    TexQuadIndexed {
        /// Texture slot.
        slot: usize,
        /// `[x0, y0, x1, y1]` in NDC.
        rect: [f32; 4],
    },
    /// `glTranslatef` / `u_mvp` update.
    Translate {
        /// Translation vector.
        v: [f32; 3],
    },
    /// `glRotatef` about Z / `u_mvp` update.
    Rotate {
        /// Degrees about +Z.
        degrees: f32,
    },
    /// `glScalef` / `u_mvp` update.
    Scale {
        /// Scale factors.
        v: [f32; 3],
    },
    /// `glPushMatrix` (v1) / host-stack push (v2).
    PushTransform,
    /// `glPopMatrix` (v1) / host-stack pop (v2).
    PopTransform,
    /// `glLoadIdentity` / identity `u_mvp`.
    LoadIdentity,
    /// `glEnable` / `glDisable`.
    SetCapability {
        /// Which capability.
        cap: Capability,
        /// Enable or disable.
        on: bool,
    },
    /// `glScissor` — with `Capability::ScissorTest` toggles in the
    /// stream this produces partial-redraw frames.
    Scissor {
        /// Box origin x.
        x: i32,
        /// Box origin y.
        y: i32,
        /// Box width.
        w: u32,
        /// Box height.
        h: u32,
    },
    /// `glFlush`.
    Flush,
    /// `presentRenderbuffer:` (diplomat path only; the reference path
    /// has no compositor, so this is a timing-plane no-op there).
    Present,
}

/// One script step: an op addressed to one of the script's contexts.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Index into [`Script::versions`].
    pub ctx: usize,
    /// The call.
    pub op: GlOp,
}

/// A replayable fuzz case: the GLES version of each context plus the
/// interleaved call sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// One entry per context; two entries with different versions
    /// exercise EGL_multi_context + DLR.
    pub versions: Vec<GlesVersion>,
    /// The interleaved calls.
    pub steps: Vec<Step>,
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "contexts: {:?}", self.versions)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  [{i:3}] ctx{} {:?}", s.ctx, s.op)?;
        }
        Ok(())
    }
}

/// Texture edge used by every `CreateTexture` (fixed so sub-updates
/// stay in bounds no matter which creates the shrinker removes).
const TEX_EDGE: u32 = 8;

fn bytes_per_texel(format: TexFormat) -> usize {
    match format {
        TexFormat::Rgba | TexFormat::Bgra => 4,
        TexFormat::Rgb565 => 2,
        TexFormat::Alpha => 1,
    }
}

/// Deterministic texel bytes for a `(format, w, h, tag)` tuple — both
/// executors call this, so texture contents always agree. Rows are
/// padded to the default `GL_UNPACK_ALIGNMENT` of 4, which sub-image
/// uploads honor when reading source rows.
fn tex_bytes(format: TexFormat, w: u32, h: u32, tag: u64) -> Vec<u8> {
    let bpp = bytes_per_texel(format);
    let stride = (w as usize * bpp).div_ceil(4) * 4;
    let n = (h as usize - 1) * stride + w as usize * bpp;
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(73).wrapping_add(tag.wrapping_mul(151)) % 251) as u8)
        .collect()
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

fn coord(rng: &mut SimRng) -> f32 {
    (rng.below(251) as f32 - 125.0) / 100.0
}

fn unit(rng: &mut SimRng) -> f32 {
    rng.below(17) as f32 / 16.0
}

fn gen_color(rng: &mut SimRng) -> [f32; 4] {
    [unit(rng), unit(rng), unit(rng), unit(rng)]
}

fn gen_rect(rng: &mut SimRng) -> [f32; 4] {
    let x0 = coord(rng);
    let y0 = coord(rng);
    [x0, y0, x0 + unit(rng) + 0.1, y0 + unit(rng) + 0.1]
}

/// Generates the deterministic script for `seed`.
pub fn generate(seed: u64) -> Script {
    let mut rng = SimRng::new(seed ^ 0xF022_D1FF);
    let nctx = 1 + rng.below(2) as usize;
    let versions: Vec<GlesVersion> = (0..nctx)
        .map(|_| {
            if rng.below(2) == 0 {
                GlesVersion::V1
            } else {
                GlesVersion::V2
            }
        })
        .collect();
    let mut tex_count = vec![0usize; nctx];
    let nops = 10 + rng.below(26) as usize;
    let mut steps = Vec::with_capacity(nops + nctx);
    // Every context starts from a known clear so leftover framebuffer
    // contents never alias between cases.
    for (ctx, _) in versions.iter().enumerate() {
        steps.push(Step {
            ctx,
            op: GlOp::Clear {
                rgba: gen_color(&mut rng),
            },
        });
    }
    for _ in 0..nops {
        let ctx = rng.below(nctx as u64) as usize;
        let op = match rng.below(17) {
            0 => GlOp::Clear {
                rgba: gen_color(&mut rng),
            },
            1..=3 => {
                let mode = match rng.below(5) {
                    0 => Primitive::Triangles,
                    1 => Primitive::TriangleStrip,
                    2 => Primitive::TriangleFan,
                    3 => Primitive::Lines,
                    _ => Primitive::Points,
                };
                let verts = 3 + rng.below(4) as usize;
                let xyz = (0..verts * 3).map(|_| coord(&mut rng)).collect();
                GlOp::Draw {
                    mode,
                    xyz,
                    color: gen_color(&mut rng),
                }
            }
            4 => {
                let format = match rng.below(3) {
                    0 => TexFormat::Rgba,
                    1 => TexFormat::Bgra,
                    _ => TexFormat::Rgb565,
                };
                tex_count[ctx] += 1;
                GlOp::CreateTexture { format }
            }
            5 if tex_count[ctx] > 0 => {
                let x = rng.below(u64::from(TEX_EDGE) - 1) as u32;
                let y = rng.below(u64::from(TEX_EDGE) - 1) as u32;
                GlOp::UpdateTexture {
                    slot: rng.below(tex_count[ctx] as u64) as usize,
                    x,
                    y,
                    w: 1 + rng.below(u64::from(TEX_EDGE - x) - 1) as u32,
                    h: 1 + rng.below(u64::from(TEX_EDGE - y) - 1) as u32,
                }
            }
            6 | 7 if tex_count[ctx] > 0 => GlOp::TexQuad {
                slot: rng.below(tex_count[ctx] as u64) as usize,
                rect: gen_rect(&mut rng),
            },
            8 if tex_count[ctx] > 0 => GlOp::TexQuadIndexed {
                slot: rng.below(tex_count[ctx] as u64) as usize,
                rect: gen_rect(&mut rng),
            },
            9 => GlOp::Translate {
                v: [coord(&mut rng), coord(&mut rng), 0.0],
            },
            10 => GlOp::Rotate {
                degrees: rng.below(24) as f32 * 15.0,
            },
            11 => GlOp::Scale {
                v: [
                    0.25 + unit(&mut rng),
                    0.25 + unit(&mut rng),
                    1.0,
                ],
            },
            12 => match rng.below(3) {
                0 => GlOp::PushTransform,
                1 => GlOp::PopTransform,
                _ => GlOp::LoadIdentity,
            },
            13 => GlOp::SetCapability {
                cap: match rng.below(3) {
                    0 => Capability::Blend,
                    1 => Capability::DepthTest,
                    _ => Capability::ScissorTest,
                },
                on: rng.below(2) == 0,
            },
            14 => GlOp::Flush,
            15 => {
                // Partial-redraw box: small and occasionally hanging
                // past the framebuffer edge (clamping must agree).
                let x = rng.below(u64::from(WIDTH)) as i32 - 4;
                let y = rng.below(u64::from(HEIGHT)) as i32 - 4;
                GlOp::Scissor {
                    x,
                    y,
                    w: 1 + rng.below(24) as u32,
                    h: 1 + rng.below(24) as u32,
                }
            }
            _ => GlOp::Present,
        };
        steps.push(Step { ctx, op });
    }
    Script { versions, steps }
}

// ---------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------

/// What one executor produced for a script: canonical-RGBA framebuffer
/// bytes per context, shaded-fragment counts per draw op (in step
/// order), and per-context session virtual time (diplomat path only —
/// zeros on the reference path, which has no session plane).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Canonical RGBA bytes of each context's render target.
    pub frames: Vec<Vec<u8>>,
    /// Fragments shaded per draw-class op, in step order.
    pub frags: Vec<u64>,
    /// Per-context session virtual nanoseconds.
    pub session_ns: Vec<Nanos>,
    /// Display scanout bytes after the last step (diplomat path only —
    /// empty on the reference path, which has no compositor).
    pub scanout: Vec<u8>,
}

fn quad_arrays(rect: [f32; 4]) -> ([f32; 18], [f32; 12]) {
    let [x0, y0, x1, y1] = rect;
    (
        [
            x0, y0, 0.0, x1, y0, 0.0, x1, y1, 0.0, x0, y0, 0.0, x1, y1, 0.0, x0, y1, 0.0,
        ],
        [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
    )
}

/// Runs `script` through the full diplomat path: one booted
/// [`CycadaDevice`], one attached [`AppGl`] session per context.
///
/// # Errors
///
/// Returns a description of the first failing call.
pub fn run_diplomat(script: &Script) -> Result<RunResult, String> {
    let device = CycadaDevice::boot_with_display(Some((WIDTH, HEIGHT)))
        .map_err(|e| format!("boot: {e}"))?;
    let mut apps = Vec::with_capacity(script.versions.len());
    for (i, v) in script.versions.iter().enumerate() {
        apps.push(
            AppGl::attach_cycada(&device, *v).map_err(|e| format!("attach ctx{i}: {e}"))?,
        );
    }
    let mut textures: Vec<Vec<(u32, TexFormat)>> = vec![Vec::new(); apps.len()];
    let mut frags = Vec::new();
    for (i, step) in script.steps.iter().enumerate() {
        let app = &mut apps[step.ctx];
        let _scope = app.session_scope();
        let err = |e| format!("step {i} ({:?}): {e}", step.op);
        match &step.op {
            GlOp::Clear { rgba } => app.clear(rgba[0], rgba[1], rgba[2], rgba[3]).map_err(err)?,
            GlOp::Draw { mode, xyz, color } => {
                frags.push(app.draw(*mode, xyz, *color).map_err(err)?);
            }
            GlOp::CreateTexture { format } => {
                let tag = textures[step.ctx].len() as u64;
                let data = tex_bytes(*format, TEX_EDGE, TEX_EDGE, tag);
                let tex = app
                    .create_texture(TEX_EDGE, TEX_EDGE, *format, &data)
                    .map_err(err)?;
                textures[step.ctx].push((tex, *format));
            }
            GlOp::UpdateTexture { slot, x, y, w, h } => {
                if let Some(&(tex, format)) = textures[step.ctx].get(*slot) {
                    let data = tex_bytes(format, *w, *h, *slot as u64 + 97);
                    app.update_texture(tex, *x, *y, *w, *h, format, &data)
                        .map_err(err)?;
                }
            }
            GlOp::TexQuad { slot, rect } => {
                if let Some(&(tex, _)) = textures[step.ctx].get(*slot) {
                    frags.push(
                        app.draw_textured_quad(tex, rect[0], rect[1], rect[2], rect[3])
                            .map_err(err)?,
                    );
                }
            }
            GlOp::TexQuadIndexed { slot, rect } => {
                if let Some(&(tex, _)) = textures[step.ctx].get(*slot) {
                    frags.push(
                        app.draw_textured_quad_indexed(tex, rect[0], rect[1], rect[2], rect[3])
                            .map_err(err)?,
                    );
                }
            }
            GlOp::Translate { v } => app.translate(v[0], v[1], v[2]).map_err(err)?,
            GlOp::Rotate { degrees } => app.rotate(*degrees).map_err(err)?,
            GlOp::Scale { v } => app.scale(v[0], v[1], v[2]).map_err(err)?,
            GlOp::PushTransform => app.push_transform().map_err(err)?,
            GlOp::PopTransform => app.pop_transform().map_err(err)?,
            GlOp::LoadIdentity => app.load_identity().map_err(err)?,
            GlOp::SetCapability { cap, on } => app.set_capability(*cap, *on).map_err(err)?,
            GlOp::Scissor { x, y, w, h } => app.set_scissor(*x, *y, *w, *h).map_err(err)?,
            GlOp::Flush => app.flush().map_err(err)?,
            GlOp::Present => app.present().map_err(err)?,
        }
    }
    let mut frames = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        frames.push(
            app.render_target()
                .map_err(|e| format!("render_target ctx{i}: {e}"))?
                .to_rgba_vec(),
        );
    }
    let session_ns = apps.iter().map(AppGl::session_virtual_ns).collect();
    let scanout = apps
        .first()
        .map(|app| app.display().scanout().read(|b| b.to_vec()))
        .unwrap_or_default();
    Ok(RunResult {
        frames,
        frags,
        session_ns,
        scanout,
    })
}

/// Mirror of [`AppGl`]'s vendor-side call sequences against a bare
/// [`GlesContext`] — the same calls `AppGl` issues through the bridge,
/// replayed directly (no diplomat layer, no sessions, reference
/// rasterizer).
struct RefCtx {
    c: GlesContext,
    version: GlesVersion,
    target: Image,
    mvp: Vec<Mat4>,
    mvp_loc: i32,
    color_loc: i32,
}

impl RefCtx {
    fn new(version: GlesVersion, device: Arc<GpuDevice>) -> RefCtx {
        let target = Image::new(WIDTH, HEIGHT, PixelFormat::Bgra8888);
        let mut c = GlesContext::new(version, ApiFlavor::Ios, device);
        c.set_default_framebuffer(Some(target.clone()));
        c.set_viewport(0, 0, WIDTH, HEIGHT);
        let mut this = RefCtx {
            c,
            version,
            target,
            mvp: vec![Mat4::identity()],
            mvp_loc: -1,
            color_loc: -1,
        };
        match version {
            GlesVersion::V1 => {
                this.c.set_client_state(ClientState::VertexArray, true);
            }
            GlesVersion::V2 => {
                let c = &mut this.c;
                let vs = c.create_shader();
                c.shader_source(vs, "attribute vec3 a_pos; uniform mat4 u_mvp;");
                c.compile_shader(vs);
                let fs = c.create_shader();
                c.shader_source(fs, "uniform vec4 u_color;");
                c.compile_shader(fs);
                let program = c.create_program();
                c.attach_shader(program, vs);
                c.attach_shader(program, fs);
                c.link_program(program);
                c.use_program(program);
                this.mvp_loc = c.uniform_location(program, "u_mvp");
                this.color_loc = c.uniform_location(program, "u_color");
                c.set_vertex_attrib_enabled(0, true);
            }
        }
        this
    }

    fn top(&self) -> Mat4 {
        *self.mvp.last().expect("stack never empty")
    }

    fn upload_mvp(&mut self) {
        let m = self.top();
        self.c.uniform_matrix4(self.mvp_loc, m);
    }

    fn draw(&mut self, mode: Primitive, xyz: &[f32], color: [f32; 4]) -> u64 {
        let count = xyz.len() / 3;
        match self.version {
            GlesVersion::V1 => {
                self.c.color4f(color[0], color[1], color[2], color[3]);
                self.c.client_pointer(ClientState::VertexArray, 3, xyz);
                self.c.draw_arrays(mode, 0, count)
            }
            GlesVersion::V2 => {
                self.c
                    .uniform4f(self.color_loc, color[0], color[1], color[2], color[3]);
                self.c.vertex_attrib_pointer(0, 3, xyz);
                self.c.draw_arrays(mode, 0, count)
            }
        }
    }

    fn tex_quad(&mut self, tex: u32, rect: [f32; 4], indexed: bool) -> u64 {
        if indexed {
            let [x0, y0, x1, y1] = rect;
            let xyz = [x0, y0, 0.0, x1, y0, 0.0, x1, y1, 0.0, x0, y1, 0.0];
            let uv = [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
            let indices = [0u32, 1, 2, 0, 2, 3];
            match self.version {
                GlesVersion::V1 => {
                    let c = &mut self.c;
                    c.bind_texture(tex);
                    c.enable(Capability::Texture2D);
                    c.set_client_state(ClientState::TexCoordArray, true);
                    c.client_pointer(ClientState::TexCoordArray, 2, &uv);
                    c.color4f(1.0, 1.0, 1.0, 1.0);
                    c.client_pointer(ClientState::VertexArray, 3, &xyz);
                    let frags = c.draw_elements(Primitive::Triangles, &indices);
                    c.set_client_state(ClientState::TexCoordArray, false);
                    c.disable(Capability::Texture2D);
                    frags
                }
                GlesVersion::V2 => {
                    let color_loc = self.color_loc;
                    let c = &mut self.c;
                    c.bind_texture(tex);
                    c.uniform4f(color_loc, 1.0, 1.0, 1.0, 1.0);
                    c.vertex_attrib_pointer(0, 3, &xyz);
                    c.set_vertex_attrib_enabled(2, true);
                    c.vertex_attrib_pointer(2, 2, &uv);
                    c.draw_elements(Primitive::Triangles, &indices)
                }
            }
        } else {
            let (xyz, uv) = quad_arrays(rect);
            match self.version {
                GlesVersion::V1 => {
                    let c = &mut self.c;
                    c.bind_texture(tex);
                    c.enable(Capability::Texture2D);
                    c.set_client_state(ClientState::TexCoordArray, true);
                    c.client_pointer(ClientState::TexCoordArray, 2, &uv);
                    c.color4f(1.0, 1.0, 1.0, 1.0);
                    c.client_pointer(ClientState::VertexArray, 3, &xyz);
                    let frags = c.draw_arrays(Primitive::Triangles, 0, 6);
                    c.set_client_state(ClientState::TexCoordArray, false);
                    c.disable(Capability::Texture2D);
                    frags
                }
                GlesVersion::V2 => {
                    let color_loc = self.color_loc;
                    let c = &mut self.c;
                    c.bind_texture(tex);
                    c.uniform4f(color_loc, 1.0, 1.0, 1.0, 1.0);
                    c.vertex_attrib_pointer(0, 3, &xyz);
                    c.set_vertex_attrib_enabled(2, true);
                    c.vertex_attrib_pointer(2, 2, &uv);
                    c.draw_arrays(Primitive::Triangles, 0, 6)
                }
            }
        }
    }
}

/// Runs `script` against bare per-context [`GlesContext`]s on a private
/// [`GpuDevice`] in reference-rasterizer mode.
///
/// # Errors
///
/// Returns a description of the first failing call (the reference path
/// is infallible today; the signature matches [`run_diplomat`]).
pub fn run_reference(script: &Script) -> Result<RunResult, String> {
    let device = Arc::new(GpuDevice::new(VirtualClock::new(), GpuCostModel::tegra3()));
    device.set_reference_raster(true);
    let mut ctxs: Vec<RefCtx> = script
        .versions
        .iter()
        .map(|v| RefCtx::new(*v, device.clone()))
        .collect();
    let mut textures: Vec<Vec<(u32, TexFormat)>> = vec![Vec::new(); ctxs.len()];
    let mut frags = Vec::new();
    for step in &script.steps {
        let rc = &mut ctxs[step.ctx];
        match &step.op {
            GlOp::Clear { rgba } => {
                rc.c.clear_color(rgba[0], rgba[1], rgba[2], rgba[3]);
                rc.c.clear(true, true);
            }
            GlOp::Draw { mode, xyz, color } => frags.push(rc.draw(*mode, xyz, *color)),
            GlOp::CreateTexture { format } => {
                let tag = textures[step.ctx].len() as u64;
                let data = tex_bytes(*format, TEX_EDGE, TEX_EDGE, tag);
                let tex = rc.c.gen_textures(1)[0];
                rc.c.bind_texture(tex);
                rc.c.tex_image_2d(TEX_EDGE, TEX_EDGE, *format, Some(&data));
                textures[step.ctx].push((tex, *format));
            }
            GlOp::UpdateTexture { slot, x, y, w, h } => {
                if let Some(&(tex, format)) = textures[step.ctx].get(*slot) {
                    let data = tex_bytes(format, *w, *h, *slot as u64 + 97);
                    rc.c.bind_texture(tex);
                    rc.c.tex_sub_image_2d(*x, *y, *w, *h, format, &data);
                }
            }
            GlOp::TexQuad { slot, rect } => {
                if let Some(&(tex, _)) = textures[step.ctx].get(*slot) {
                    frags.push(rc.tex_quad(tex, *rect, false));
                }
            }
            GlOp::TexQuadIndexed { slot, rect } => {
                if let Some(&(tex, _)) = textures[step.ctx].get(*slot) {
                    frags.push(rc.tex_quad(tex, *rect, true));
                }
            }
            GlOp::Translate { v } => {
                let top = rc.mvp.last_mut().expect("stack never empty");
                *top = top.mul(&Mat4::translate(v[0], v[1], v[2]));
                match rc.version {
                    GlesVersion::V1 => rc.c.translate(v[0], v[1], v[2]),
                    GlesVersion::V2 => rc.upload_mvp(),
                }
            }
            GlOp::Rotate { degrees } => {
                let top = rc.mvp.last_mut().expect("stack never empty");
                *top = top.mul(&Mat4::rotate_z(*degrees));
                match rc.version {
                    GlesVersion::V1 => rc.c.rotate(*degrees, 0.0, 0.0, 1.0),
                    GlesVersion::V2 => rc.upload_mvp(),
                }
            }
            GlOp::Scale { v } => {
                let top = rc.mvp.last_mut().expect("stack never empty");
                *top = top.mul(&Mat4::scale(v[0], v[1], v[2]));
                match rc.version {
                    GlesVersion::V1 => rc.c.scale(v[0], v[1], v[2]),
                    GlesVersion::V2 => rc.upload_mvp(),
                }
            }
            GlOp::PushTransform => {
                let top = rc.top();
                rc.mvp.push(top);
                if rc.version == GlesVersion::V1 {
                    rc.c.push_matrix();
                }
            }
            GlOp::PopTransform => {
                if rc.mvp.len() > 1 {
                    rc.mvp.pop();
                }
                if rc.version == GlesVersion::V1 {
                    rc.c.pop_matrix();
                }
            }
            GlOp::LoadIdentity => {
                *rc.mvp.last_mut().expect("stack never empty") = Mat4::identity();
                match rc.version {
                    GlesVersion::V1 => rc.c.load_identity(),
                    GlesVersion::V2 => rc.upload_mvp(),
                }
            }
            GlOp::SetCapability { cap, on } => {
                if *on {
                    rc.c.enable(*cap);
                } else {
                    rc.c.disable(*cap);
                }
            }
            GlOp::Scissor { x, y, w, h } => rc.c.set_scissor(*x, *y, *w, *h),
            GlOp::Flush | GlOp::Present => {}
        }
    }
    let frames = ctxs.iter().map(|rc| rc.target.to_rgba_vec()).collect();
    let session_ns = vec![0; ctxs.len()];
    Ok(RunResult {
        frames,
        frags,
        session_ns,
        scanout: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// Differ + shrinker
// ---------------------------------------------------------------------

/// Executes `script` on both paths and checks the conformance and
/// determinism contracts.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence.
pub fn check_script(script: &Script) -> Result<(), String> {
    let diplomat = run_diplomat(script).map_err(|e| format!("diplomat path failed: {e}"))?;
    let reference = run_reference(script).map_err(|e| format!("reference path failed: {e}"))?;
    if diplomat.frags != reference.frags {
        return Err(format!(
            "fragment counts diverged: diplomat {:?} vs reference {:?}",
            diplomat.frags, reference.frags
        ));
    }
    for (ctx, (d, r)) in diplomat
        .frames
        .iter()
        .zip(reference.frames.iter())
        .enumerate()
    {
        if d != r {
            let first = d
                .iter()
                .zip(r.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            let px = first / 4;
            return Err(format!(
                "ctx{ctx} framebuffer diverged at pixel ({}, {}): diplomat {:?} vs reference {:?}",
                px as u32 % WIDTH,
                px as u32 / WIDTH,
                &d[px * 4..px * 4 + 4],
                &r[px * 4..px * 4 + 4],
            ));
        }
    }
    // Determinism of the metered plane: a second fresh diplomat run must
    // repeat pixels, virtual time and scanout exactly.
    let again = run_diplomat(script).map_err(|e| format!("diplomat re-run failed: {e}"))?;
    if again.frames != diplomat.frames {
        return Err("diplomat re-run produced different pixels".into());
    }
    if again.session_ns != diplomat.session_ns {
        return Err(format!(
            "diplomat re-run metered different virtual time: first {:?} vs again {:?}",
            diplomat.session_ns, again.session_ns
        ));
    }
    if again.scanout != diplomat.scanout {
        return Err("diplomat re-run produced a different scanout".into());
    }
    Ok(())
}

/// Delta-debugging shrink: repeatedly removes step chunks (halving the
/// chunk size down to single steps) while `fails` still holds, then
/// drops contexts no remaining step references. The result is
/// 1-minimal: removing any single remaining step makes the failure
/// disappear.
pub fn shrink(script: &Script, fails: impl Fn(&Script) -> bool) -> Script {
    let mut steps = script.steps.clone();
    let mut chunk = steps.len().max(1);
    while chunk >= 1 {
        let mut i = 0;
        while i < steps.len() {
            let mut candidate = steps.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            let cand = Script {
                versions: script.versions.clone(),
                steps: candidate,
            };
            if fails(&cand) {
                steps = cand.steps;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    let mut shrunk = Script {
        versions: script.versions.clone(),
        steps,
    };
    // Drop unreferenced contexts (highest first so indices stay valid),
    // keeping the failure intact.
    for ctx in (0..shrunk.versions.len()).rev() {
        if shrunk.versions.len() == 1 || shrunk.steps.iter().any(|s| s.ctx == ctx) {
            continue;
        }
        let mut cand = shrunk.clone();
        cand.versions.remove(ctx);
        for s in &mut cand.steps {
            if s.ctx > ctx {
                s.ctx -= 1;
            }
        }
        if fails(&cand) {
            shrunk = cand;
        }
    }
    shrunk
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn generated_scripts_start_with_clears_and_stay_in_bounds() {
        for seed in 0..20 {
            let script = generate(seed);
            assert!(!script.versions.is_empty() && script.versions.len() <= 2);
            for (ctx, _) in script.versions.iter().enumerate() {
                assert!(
                    matches!(script.steps[ctx].op, GlOp::Clear { .. }),
                    "seed {seed}: ctx{ctx} does not start with a clear"
                );
            }
            for s in &script.steps {
                assert!(s.ctx < script.versions.len());
                if let GlOp::UpdateTexture { x, y, w, h, .. } = s.op {
                    assert!(x + w <= TEX_EDGE && y + h <= TEX_EDGE);
                }
            }
        }
    }

    #[test]
    fn shrinker_reaches_a_one_minimal_script() {
        let script = generate(42);
        // Synthetic failure: the script contains at least one rotate
        // and at least one colored draw. The minimal script has
        // exactly one of each.
        let fails = |s: &Script| {
            s.steps.iter().any(|st| matches!(st.op, GlOp::Rotate { .. }))
                && s.steps.iter().any(|st| matches!(st.op, GlOp::Draw { .. }))
        };
        if !fails(&script) {
            panic!("seed 42 no longer generates a rotate and a draw; pick a new seed");
        }
        let shrunk = shrink(&script, fails);
        assert!(fails(&shrunk));
        assert_eq!(
            shrunk.steps.len(),
            2,
            "expected exactly one rotate + one draw, got:\n{shrunk}"
        );
        assert_eq!(shrunk.versions.len(), 1, "unreferenced context kept");
    }
}
