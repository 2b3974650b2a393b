//! Differential GLES conformance fuzzing: seeded random call scripts
//! executed through the full diplomat path and through the reference
//! rasterizer must produce byte-identical framebuffers and equal
//! per-draw fragment counts; a fresh diplomat re-run must repeat the
//! pixels, scanout and metered virtual time. Failures shrink to a
//! minimal replayable script before the test panics.
//!
//! Case count: 24 under `cargo test` (debug), 200 in release CI;
//! `CYCADA_FUZZ_CASES` overrides both (the nightly long run sets it to
//! several thousand).

use cycada_gles::{Capability, GlesVersion, Primitive};
use cycada_integration::fuzz::{check_script, generate, shrink, GlOp, Script, Step};

/// Base seed for the sweep; shifting it re-randomizes every case while
/// keeping each CI run reproducible from the test log alone.
const BASE_SEED: u64 = 0xD1FF_2026;

fn case_count() -> u64 {
    if let Ok(v) = std::env::var("CYCADA_FUZZ_CASES") {
        return v.parse().expect("CYCADA_FUZZ_CASES must be an integer");
    }
    if cfg!(debug_assertions) {
        24
    } else {
        200
    }
}

#[test]
fn differential_seeded_sweep() {
    for i in 0..case_count() {
        let seed = BASE_SEED + i;
        let script = generate(seed);
        if let Err(err) = check_script(&script) {
            let shrunk = shrink(&script, |s| check_script(s).is_err());
            let final_err = check_script(&shrunk).expect_err("shrunk script must still fail");
            panic!(
                "seed {seed} diverged: {err}\n\
                 minimal failing script ({} of {} steps, error: {final_err}):\n{shrunk}",
                shrunk.steps.len(),
                script.steps.len(),
            );
        }
    }
}

/// A hand-minimized script exercising every op class across a V1 and a
/// V2 context — the committed regression artifact the shrinker's
/// output is meant to look like, proving minimal scripts replay
/// through the same entry point as fuzz cases.
#[test]
fn minimal_committed_script_replays_clean() {
    let steps = [
        (0, GlOp::Clear { rgba: [0.1, 0.2, 0.3, 1.0] }),
        (1, GlOp::Clear { rgba: [0.9, 0.6, 0.0, 1.0] }),
        (0, GlOp::CreateTexture { format: cycada_gles::TexFormat::Rgba }),
        (0, GlOp::Rotate { degrees: 30.0 }),
        (0, GlOp::PushTransform),
        (0, GlOp::Scale { v: [0.5, 0.75, 1.0] }),
        (
            0,
            GlOp::Draw {
                mode: Primitive::Triangles,
                xyz: vec![-0.8, -0.8, 0.0, 0.8, -0.8, 0.0, 0.0, 0.9, 0.0],
                color: [1.0, 0.0, 0.25, 1.0],
            },
        ),
        (0, GlOp::PopTransform),
        (0, GlOp::TexQuad { slot: 0, rect: [-0.5, -0.5, 0.5, 0.5] }),
        (1, GlOp::Translate { v: [0.25, -0.25, 0.0] }),
        (
            1,
            GlOp::Draw {
                mode: Primitive::TriangleFan,
                xyz: vec![0.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.7, 0.0],
                color: [0.0, 0.5, 1.0, 0.75],
            },
        ),
        (0, GlOp::UpdateTexture { slot: 0, x: 2, y: 2, w: 4, h: 4 }),
        (0, GlOp::TexQuadIndexed { slot: 0, rect: [0.0, 0.0, 0.9, 0.9] }),
        (0, GlOp::Present),
        (1, GlOp::Present),
        // Partial redraw: scissored clear then a second present; the
        // scanout must match the fresh re-run byte for byte.
        (0, GlOp::SetCapability { cap: Capability::ScissorTest, on: true }),
        (0, GlOp::Scissor { x: 8, y: 8, w: 16, h: 12 }),
        (0, GlOp::Clear { rgba: [0.0, 1.0, 0.2, 1.0] }),
        (0, GlOp::SetCapability { cap: Capability::ScissorTest, on: false }),
        (0, GlOp::Present),
    ];
    let script = Script {
        versions: vec![GlesVersion::V1, GlesVersion::V2],
        steps: steps
            .into_iter()
            .map(|(ctx, op)| Step { ctx, op })
            .collect(),
    };
    check_script(&script).expect("committed minimal script must replay clean");
}
