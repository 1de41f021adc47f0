//! Golden lifted source: the Halide C++ text `Lifter::lift` emits for every
//! app the lifting tests cover, compared byte for byte with the committed
//! files under `tests/golden/`. A change to the lifter's data structures must
//! leave the lifted program untouched; these tests make that a check.
//!
//! Each app lifts on the same image, size and seed as its behavioural test
//! (`lift_equivalence.rs`, `lift_photoflow_full.rs`, `lift_batchview.rs`,
//! `lift_minigmg.rs`). When a change is meant to alter the lifted program,
//! regenerate the affected file from the new `halide_source()` and review the
//! diff.

use helium::apps::batchview::{BatchFilter, BatchView};
use helium::apps::photoflow::{PhotoFilter, PhotoFlow};
use helium::apps::{Grid3D, InterleavedImage, MiniGmg, PlanarImage};
use helium::core::{KnownData, LiftRequest, LiftedStencil, Lifter};
use std::path::PathBuf;

fn request(inputs: Vec<Vec<Vec<u8>>>, outputs: Vec<Vec<Vec<u8>>>, size: usize) -> LiftRequest {
    LiftRequest {
        known_inputs: inputs.into_iter().map(KnownData::from_rows).collect(),
        known_outputs: outputs.into_iter().map(KnownData::from_rows).collect(),
        approx_data_size: size,
    }
}

fn lift_photoflow(filter: PhotoFilter, w: usize, h: usize, seed: u64) -> LiftedStencil {
    let app = PhotoFlow::new(filter, PlanarImage::random(w, h, 1, 16, seed));
    let req = request(
        app.known_input_rows(),
        app.known_output_rows(),
        app.approx_data_size(),
    );
    Lifter::new()
        .lift(app.program(), &req, |with| app.fresh_cpu(with))
        .expect("lifting the PhotoFlow filter succeeds")
}

fn lift_batchview(filter: BatchFilter, w: usize, h: usize) -> LiftedStencil {
    let app = BatchView::new(
        filter,
        InterleavedImage::random(w, h, 0x1AF1 + filter as u64),
    );
    let req = request(
        app.known_input_rows(),
        app.known_output_rows(),
        app.approx_data_size(),
    );
    Lifter::new()
        .lift(app.program(), &req, |with| app.fresh_cpu(with))
        .expect("lifting the BatchView filter succeeds")
}

fn lift_minigmg(nx: usize, ny: usize, nz: usize) -> LiftedStencil {
    let app = MiniGmg::new(Grid3D::random(nx, ny, nz, 1, 0x6116));
    let req = request(vec![], vec![], app.approx_data_size());
    Lifter::new()
        .lift(app.program(), &req, |with| app.fresh_cpu(with))
        .expect("lifting the smooth stencil succeeds")
}

/// Compare `lifted.halide_source()` with `tests/golden/<name>.halide`,
/// reporting the first line that differs.
fn check(name: &str, lifted: &LiftedStencil) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.halide"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let got = lifted.halide_source();
    if got == want {
        return;
    }
    let (line, (g, w)) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .unwrap_or((
            got.lines().count().min(want.lines().count()),
            ("<end of text>", "<end of text>"),
        ));
    panic!(
        "{name}: lifted source differs from {} at line {}\n  got:  {g}\n  want: {w}\n\
         full lifted source:\n{got}",
        path.display(),
        line + 1
    );
}

// The fig7 filters of `lift_equivalence.rs` (image seed 0xC0FFEE).

#[test]
fn golden_photoflow_invert() {
    check(
        "photoflow_invert",
        &lift_photoflow(PhotoFilter::Invert, 24, 11, 0xC0FFEE),
    );
}

#[test]
fn golden_photoflow_blur() {
    check(
        "photoflow_blur",
        &lift_photoflow(PhotoFilter::Blur, 32, 17, 0xC0FFEE),
    );
}

#[test]
fn golden_photoflow_sharpen() {
    check(
        "photoflow_sharpen",
        &lift_photoflow(PhotoFilter::Sharpen, 24, 12, 0xC0FFEE),
    );
}

#[test]
fn golden_photoflow_threshold() {
    check(
        "photoflow_threshold",
        &lift_photoflow(PhotoFilter::Threshold, 24, 10, 0xC0FFEE),
    );
}

// The filters of `lift_photoflow_full.rs` (image seed 0xFACE + filter).

#[test]
fn golden_photoflow_blur_more() {
    let f = PhotoFilter::BlurMore;
    check(
        "photoflow_blur_more",
        &lift_photoflow(f, 32, 17, 0xFACE + f as u64),
    );
}

#[test]
fn golden_photoflow_sharpen_more() {
    let f = PhotoFilter::SharpenMore;
    check(
        "photoflow_sharpen_more",
        &lift_photoflow(f, 32, 15, 0xFACE + f as u64),
    );
}

#[test]
fn golden_photoflow_box_blur() {
    let f = PhotoFilter::BoxBlur;
    check(
        "photoflow_box_blur",
        &lift_photoflow(f, 30, 14, 0xFACE + f as u64),
    );
}

#[test]
fn golden_photoflow_brightness() {
    let f = PhotoFilter::Brightness;
    check(
        "photoflow_brightness",
        &lift_photoflow(f, 32, 17, 0xFACE + f as u64),
    );
}

#[test]
fn golden_photoflow_equalize() {
    let f = PhotoFilter::Equalize;
    check(
        "photoflow_equalize",
        &lift_photoflow(f, 32, 17, 0xFACE + f as u64),
    );
}

// The BatchView filters of `lift_batchview.rs`.

#[test]
fn golden_batchview_invert() {
    check(
        "batchview_invert",
        &lift_batchview(BatchFilter::Invert, 20, 11),
    );
}

#[test]
fn golden_batchview_solarize() {
    check(
        "batchview_solarize",
        &lift_batchview(BatchFilter::Solarize, 18, 10),
    );
}

#[test]
fn golden_batchview_blur() {
    check("batchview_blur", &lift_batchview(BatchFilter::Blur, 16, 10));
}

#[test]
fn golden_batchview_sharpen() {
    check(
        "batchview_sharpen",
        &lift_batchview(BatchFilter::Sharpen, 16, 9),
    );
}

// The miniGMG smooth of `lift_minigmg.rs`.

#[test]
fn golden_minigmg_smooth() {
    check("minigmg_smooth", &lift_minigmg(12, 10, 8));
}
