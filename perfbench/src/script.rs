//! Recorded scenario call streams, compiled for the benchmark's own
//! call-by-call frame walker.
//!
//! `scenario::frame` is opaque from outside the workloads crate, so the
//! `panel` and `calls` workloads issue every `AppGl` call themselves: the
//! scenario is recorded once with `cycada_replay::record_scenario`, its
//! `.cyt` bytes decoded again, and the calls compiled into [`Op`]s split
//! into the setup prefix (warm-up frame included) and one op list per
//! metered frame. Walking a script on a session issues exactly the calls
//! the scripted scenario would, so pixels and metered virtual time match
//! `cycada_fleet::solo_outcome` for the same scenario, seed and frames.

use std::collections::HashMap;
use std::time::Instant;

use cycada::{AppGl, CycadaError};
use cycada_gles::{Capability, Primitive, TexFormat};
use cycada_gpu::raster::Rect;
use cycada_gpu::DrawClass;
use cycada_replay::{ReplayCall, ReplayStream};
use cycada_sim::replay::{
    arg_f32, arg_f64, arg_i32, op, MARK_END, MARK_METER_BEGIN, MARK_METER_END,
};
use cycada_workloads::scenario::Scenario;

/// The timed call classes of a frame (the `core.*_us` per-layer rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// `present`: EAGL blits, GPU execute, `eglSwapBuffers`, flinger.
    Present,
    /// `draw`, `draw_textured_quad`, `draw_textured_quad_indexed`.
    Draw,
    /// `clear`.
    Clear,
    /// Scissor, capability and transform-stack calls.
    State,
    /// Texture create, update and delete.
    Texture,
    /// Everything else the app issues: CPU charges, draw-class hints,
    /// flushes, extension queries, display-layer placement.
    Other,
}

impl CallClass {
    /// Every class, in report order.
    pub const ALL: [CallClass; 6] = [
        CallClass::Present,
        CallClass::Draw,
        CallClass::Clear,
        CallClass::State,
        CallClass::Texture,
        CallClass::Other,
    ];

    /// Per-layer metric name of the class's mean call wall.
    pub fn metric(self) -> &'static str {
        match self {
            CallClass::Present => "core.present_us",
            CallClass::Draw => "core.draw_us",
            CallClass::Clear => "core.clear_us",
            CallClass::State => "core.state_us",
            CallClass::Texture => "core.texture_us",
            CallClass::Other => "core.other_us",
        }
    }
}

/// One compiled app call. Texture names are the recording's; the walker
/// maps them to the live session's names.
#[derive(Debug, Clone)]
pub enum Op {
    Clear([f32; 4]),
    Scissor(i32, i32, u32, u32),
    Capability(Capability, bool),
    Push,
    Pop,
    Rotate(f32),
    Translate(f32, f32, f32),
    Scale(f32, f32, f32),
    Identity,
    Draw(Primitive, Vec<f32>, [f32; 4]),
    CreateTexture {
        w: u32,
        h: u32,
        format: TexFormat,
        texels: Vec<u8>,
        name: u64,
    },
    UpdateTexture {
        name: u64,
        rect: [u32; 4],
        format: TexFormat,
        texels: Vec<u8>,
    },
    TexQuad {
        name: u64,
        rect: [f32; 4],
        indexed: bool,
    },
    DeleteTextures(Vec<u64>),
    Flush,
    Extensions,
    DisplayLayer(Rect),
    ChargeCpu(f64),
    DrawClass(DrawClass),
    Present,
}

impl Op {
    fn class(&self) -> CallClass {
        match self {
            Op::Present => CallClass::Present,
            Op::Draw(..) | Op::TexQuad { .. } => CallClass::Draw,
            Op::Clear(_) => CallClass::Clear,
            Op::Scissor(..)
            | Op::Capability(..)
            | Op::Push
            | Op::Pop
            | Op::Rotate(_)
            | Op::Translate(..)
            | Op::Scale(..)
            | Op::Identity => CallClass::State,
            Op::CreateTexture { .. } | Op::UpdateTexture { .. } | Op::DeleteTextures(_) => {
                CallClass::Texture
            }
            Op::Flush
            | Op::Extensions
            | Op::DisplayLayer(_)
            | Op::ChargeCpu(_)
            | Op::DrawClass(_) => CallClass::Other,
        }
    }
}

/// A compiled scenario session.
#[derive(Debug, Clone)]
pub struct Script {
    /// Scenario the stream was recorded from.
    pub scenario: Scenario,
    /// The session seed it was recorded with.
    pub seed: u64,
    /// Calls before the metered region: scenario setup and warm-up frame.
    pub setup: Vec<Op>,
    /// One op list per metered frame, each ending with its present.
    pub frames: Vec<Vec<Op>>,
    /// Framebuffer digest the recording ended on.
    pub end_digest: u64,
    /// Metered virtual nanoseconds the recording ended on.
    pub end_virtual_ns: u64,
}

/// The payload as little-endian 4-byte words.
fn words(bytes: &[u8]) -> Result<impl Iterator<Item = [u8; 4]> + '_, String> {
    if !bytes.len().is_multiple_of(4) {
        return Err("payload is not a multiple of 4 bytes".to_owned());
    }
    Ok(bytes.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]))
}

fn compile(name: &str, call: &ReplayCall) -> Result<Op, String> {
    let a = |k: usize| call.args.get(k).copied().unwrap_or(0);
    let f = |k: usize| arg_f32(a(k));
    let format = |k: usize| {
        TexFormat::from_code(a(k) as u8).ok_or_else(|| "bad texture format code".to_owned())
    };
    Ok(match name {
        op::CLEAR => Op::Clear([f(0), f(1), f(2), f(3)]),
        op::SCISSOR => Op::Scissor(arg_i32(a(0)), arg_i32(a(1)), a(2) as u32, a(3) as u32),
        op::CAPABILITY => Op::Capability(
            Capability::from_code(a(0) as u8).ok_or("bad capability code")?,
            a(1) != 0,
        ),
        op::PUSH => Op::Push,
        op::POP => Op::Pop,
        op::ROTATE => Op::Rotate(f(0)),
        op::TRANSLATE => Op::Translate(f(0), f(1), f(2)),
        op::SCALE => Op::Scale(f(0), f(1), f(2)),
        op::IDENTITY => Op::Identity,
        op::DRAW => Op::Draw(
            Primitive::from_code(a(0) as u8).ok_or("bad primitive code")?,
            words(&call.payload)?.map(f32::from_le_bytes).collect(),
            [f(1), f(2), f(3), f(4)],
        ),
        op::CREATE_TEXTURE => Op::CreateTexture {
            w: a(0) as u32,
            h: a(1) as u32,
            format: format(2)?,
            texels: call.payload.clone(),
            name: a(3),
        },
        op::UPDATE_TEXTURE => Op::UpdateTexture {
            name: a(0),
            rect: [a(1) as u32, a(2) as u32, a(3) as u32, a(4) as u32],
            format: format(5)?,
            texels: call.payload.clone(),
        },
        op::TEX_QUAD | op::TEX_QUAD_INDEXED => Op::TexQuad {
            name: a(0),
            rect: [f(1), f(2), f(3), f(4)],
            indexed: name == op::TEX_QUAD_INDEXED,
        },
        op::DELETE_TEXTURES => Op::DeleteTextures(
            words(&call.payload)?
                .map(|w| u64::from(u32::from_le_bytes(w)))
                .collect(),
        ),
        op::FLUSH => Op::Flush,
        op::EXTENSIONS => Op::Extensions,
        op::DISPLAY_LAYER => Op::DisplayLayer(Rect {
            x: a(0) as u32,
            y: a(1) as u32,
            w: a(2) as u32,
            h: a(3) as u32,
        }),
        op::CHARGE_CPU => Op::ChargeCpu(arg_f64(a(0))),
        op::DRAW_CLASS => {
            Op::DrawClass(DrawClass::from_code(a(0) as u8).ok_or("bad draw-class code")?)
        }
        op::PRESENT => Op::Present,
        other => return Err(format!("unknown operation {other:?}")),
    })
}

impl Script {
    /// Records `scenario` solo for `frames` metered frames, round-trips
    /// the stream through the `.cyt` codec, and compiles it.
    pub fn record(
        scenario: Scenario,
        seed: u64,
        frames: u32,
        display: (u32, u32),
    ) -> Result<Script, String> {
        let stream = cycada_replay::record_scenario(scenario, seed, frames, display)?;
        let stream = ReplayStream::decode(&stream.encode()).map_err(|e| e.to_string())?;
        Script::compile(scenario, seed, &stream)
    }

    fn compile(scenario: Scenario, seed: u64, stream: &ReplayStream) -> Result<Script, String> {
        let label = scenario.label();
        let mut setup = Vec::new();
        let mut frames: Vec<Vec<Op>> = Vec::new();
        let mut current: Vec<Op> = Vec::new();
        let mut metered = false;
        let mut end = None;
        for (index, call) in stream.calls.iter().enumerate() {
            let name = stream.name_of(call);
            let err = |e: String| format!("{label} stream call {index} ({name}): {e}");
            match name {
                MARK_METER_BEGIN => metered = true,
                MARK_METER_END => {
                    if !current.is_empty() {
                        return Err(err("metered calls after the last present".to_owned()));
                    }
                    metered = false;
                }
                MARK_END => end = Some((call.args.first().copied(), call.args.get(1).copied())),
                _ => {
                    let op = compile(name, call).map_err(err)?;
                    if !metered {
                        setup.push(op);
                        continue;
                    }
                    let present = matches!(op, Op::Present);
                    current.push(op);
                    if present {
                        frames.push(std::mem::take(&mut current));
                    }
                }
            }
        }
        match end {
            Some((Some(end_digest), Some(end_virtual_ns))) => Ok(Script {
                scenario,
                seed,
                setup,
                frames,
                end_digest,
                end_virtual_ns,
            }),
            _ => Err(format!("{label} stream has no end marker")),
        }
    }

    /// Metered frames in the script.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }
}

/// Accumulated wall and call count per [`CallClass`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTimes {
    /// Wall nanoseconds per class, indexed like [`CallClass::ALL`].
    pub ns: [u64; 6],
    /// Calls per class.
    pub calls: [u64; 6],
}

impl CallTimes {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &CallTimes) {
        for i in 0..6 {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Total timed wall.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Issues compiled ops on one session, mapping recorded texture names to
/// live ones. With `times` set, each call is timed from outside.
#[derive(Debug, Default)]
pub struct Walker {
    texmap: HashMap<u64, u32>,
}

impl Walker {
    /// Issues `ops` on `app`, timing each call into `times` when given.
    pub fn run(
        &mut self,
        app: &mut AppGl,
        ops: &[Op],
        mut times: Option<&mut CallTimes>,
    ) -> Result<(), CycadaError> {
        for op in ops {
            match times.as_deref_mut() {
                Some(t) => {
                    let started = Instant::now();
                    self.issue(app, op)?;
                    let i = op.class() as usize;
                    t.ns[i] += started.elapsed().as_nanos() as u64;
                    t.calls[i] += 1;
                }
                None => self.issue(app, op)?,
            }
        }
        Ok(())
    }

    fn issue(&mut self, app: &mut AppGl, op: &Op) -> Result<(), CycadaError> {
        match op {
            Op::Clear([r, g, b, a]) => app.clear(*r, *g, *b, *a),
            Op::Scissor(x, y, w, h) => app.set_scissor(*x, *y, *w, *h),
            Op::Capability(cap, on) => app.set_capability(*cap, *on),
            Op::Push => app.push_transform(),
            Op::Pop => app.pop_transform(),
            Op::Rotate(deg) => app.rotate(*deg),
            Op::Translate(x, y, z) => app.translate(*x, *y, *z),
            Op::Scale(x, y, z) => app.scale(*x, *y, *z),
            Op::Identity => app.load_identity(),
            Op::Draw(mode, xyz, color) => app.draw(*mode, xyz, *color).map(drop),
            Op::CreateTexture {
                w,
                h,
                format,
                texels,
                name,
            } => {
                let tex = app.create_texture(*w, *h, *format, texels)?;
                self.texmap.insert(*name, tex);
                Ok(())
            }
            Op::UpdateTexture {
                name,
                rect: [x, y, w, h],
                format,
                texels,
            } => match self.texmap.get(name) {
                Some(&tex) => app.update_texture(tex, *x, *y, *w, *h, *format, texels),
                None => Ok(()),
            },
            Op::TexQuad {
                name,
                rect: [x0, y0, x1, y1],
                indexed,
            } => match self.texmap.get(name) {
                Some(&tex) if *indexed => app
                    .draw_textured_quad_indexed(tex, *x0, *y0, *x1, *y1)
                    .map(drop),
                Some(&tex) => app.draw_textured_quad(tex, *x0, *y0, *x1, *y1).map(drop),
                None => Ok(()),
            },
            Op::DeleteTextures(names) => {
                let live: Vec<u32> = names.iter().filter_map(|n| self.texmap.remove(n)).collect();
                if live.is_empty() {
                    Ok(())
                } else {
                    app.delete_textures(&live)
                }
            }
            Op::Flush => app.flush(),
            Op::Extensions => app.extensions().map(drop),
            Op::DisplayLayer(rect) => app.set_display_layer(*rect),
            Op::ChargeCpu(ns) => {
                app.charge_cpu(*ns);
                Ok(())
            }
            Op::DrawClass(class) => {
                app.set_draw_class(*class);
                Ok(())
            }
            Op::Present => app.present(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycada::CycadaDevice;

    #[test]
    fn walking_a_script_reproduces_the_solo_outcome() {
        let display = (32, 32);
        for scenario in Scenario::CORPUS {
            let script = Script::record(scenario, 11, 3, display).expect("record");
            assert_eq!(script.frame_count(), 3, "{}", scenario.label());
            assert!(script
                .frames
                .iter()
                .all(|f| matches!(f.last(), Some(Op::Present))));
            let solo = cycada_fleet::solo_outcome(scenario, 11, 3, display).expect("solo");
            assert_eq!((script.end_digest, script.end_virtual_ns), solo);

            let device = CycadaDevice::boot_with_display(Some(display)).expect("boot");
            let mut app = AppGl::attach_cycada(&device, scenario.gles_version()).expect("attach");
            let mut walker = Walker::default();
            let mut times = CallTimes::default();
            walker.run(&mut app, &script.setup, None).expect("setup");
            {
                let _scope = app.session_scope();
                for ops in &script.frames {
                    walker.run(&mut app, ops, Some(&mut times)).expect("frame");
                }
            }
            let got = (app.render_hash().expect("hash"), app.session_virtual_ns());
            assert_eq!(got, solo, "{}", scenario.label());
            assert_eq!(times.calls[CallClass::Present as usize], 3);
        }
    }
}
