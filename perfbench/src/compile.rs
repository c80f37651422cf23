//! The compiler, called phase by phase so that each layer gets a span.
//!
//! [`compile`] makes the same calls, in the same order, as
//! `m3gc_compiler::compile`; [`check_against_entry_point`] confirms that both
//! produce the same module.

use m3gc_compiler::Options;
use m3gc_core::decode::DecoderIndex;
use m3gc_core::encode::{encode_module, Scheme};
use m3gc_core::stats::table_stats;
use m3gc_ir::Program;
use m3gc_vm::VmModule;

use crate::spans::{SpanId, Tracer};

/// Deterministic sizes of one compilation. Two compilations of the same
/// source with the same options must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    pub lines: u64,
    pub tokens: u64,
    pub instrs_lowered: u64,
    pub instrs_optimized: u64,
    pub code_bytes: u64,
    /// Encoded gc-map bytes under the module's scheme (δ-main+PP).
    pub table_bytes: u64,
    /// Table 1's NGC, NPTRS and NDER.
    pub gc_points: u64,
    pub ptr_slots: u64,
    pub derived_values: u64,
}

impl CompileCounts {
    pub fn add(&mut self, o: &CompileCounts) {
        self.lines += o.lines;
        self.tokens += o.tokens;
        self.instrs_lowered += o.instrs_lowered;
        self.instrs_optimized += o.instrs_optimized;
        self.code_bytes += o.code_bytes;
        self.table_bytes += o.table_bytes;
        self.gc_points += o.gc_points;
        self.ptr_slots += o.ptr_slots;
        self.derived_values += o.derived_values;
    }

    /// Named fields, for exact-count checks.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("lines", self.lines),
            ("tokens", self.tokens),
            ("instrs_lowered", self.instrs_lowered),
            ("instrs_optimized", self.instrs_optimized),
            ("code_bytes", self.code_bytes),
            ("table_bytes", self.table_bytes),
            ("gc_points", self.gc_points),
            ("ptr_slots", self.ptr_slots),
            ("derived_values", self.derived_values),
        ]
    }
}

fn instr_count(p: &Program) -> u64 {
    p.funcs.iter().flat_map(|f| &f.blocks).map(|b| b.instrs.len() as u64).sum()
}

/// Compiles `src`, one span per phase under a `compile` span.
///
/// # Errors
///
/// A front-end diagnostic or an IR verification failure, as text.
pub fn compile(
    tr: &mut Tracer,
    parent: SpanId,
    src: &str,
    opts: &Options,
) -> Result<(VmModule, CompileCounts), String> {
    tr.span("compile", parent, |tr, id| {
        let tokens = tr.span("frontend.lex", id, |_, _| m3gc_frontend::lexer::lex(src));
        let tokens = tokens.map_err(|d| d.to_string())?;
        let n_tokens = tokens.len() as u64;
        let ast = tr.span("frontend.parse", id, |_, _| m3gc_frontend::parser::parse(tokens));
        let ast = ast.map_err(|d| d.to_string())?;
        let checked =
            tr.span("frontend.typecheck", id, |_, _| m3gc_frontend::typecheck::check(&ast));
        let checked = checked.map_err(|d| d.to_string())?;
        let mut prog = tr.span("frontend.lower", id, |_, _| {
            m3gc_frontend::lower::lower_with(&ast, &checked, opts.lower)
        });
        let instrs_lowered = instr_count(&prog);
        tr.span("ir.verify", id, |_, _| m3gc_ir::verify::verify_program(&prog))
            .map_err(|e| format!("lowering produced invalid IR: {e}"))?;
        tr.span("opt.optimize", id, |_, _| m3gc_opt::optimize_program(&mut prog, &opts.opt));
        let instrs_optimized = instr_count(&prog);
        tr.span("ir.verify", id, |_, _| m3gc_ir::verify::verify_program(&prog))
            .map_err(|e| format!("optimizer produced invalid IR: {e}"))?;
        let module = tr.span("codegen.compile", id, |_, _| {
            m3gc_codegen::compile_program(&mut prog, &opts.codegen)
        });
        let t1 = table_stats(&module.logical_maps);
        let counts = CompileCounts {
            lines: src.lines().count() as u64,
            tokens: n_tokens,
            instrs_lowered,
            instrs_optimized,
            code_bytes: module.code_size() as u64,
            table_bytes: module.gc_maps.bytes.len() as u64,
            gc_points: t1.ngc as u64,
            ptr_slots: t1.nptrs as u64,
            derived_values: t1.nder as u64,
        };
        Ok((module, counts))
    })
}

/// Checks that the public one-call entry point produces the module that
/// the phase-by-phase pipeline produced.
///
/// # Errors
///
/// Describes the first difference.
pub fn check_against_entry_point(
    src: &str,
    opts: &Options,
    module: &VmModule,
) -> Result<(), String> {
    let whole = m3gc_compiler::compile(src, opts).map_err(|d| d.to_string())?;
    if whole.code != module.code {
        return Err("code differs from m3gc_compiler::compile".into());
    }
    if whole.gc_maps.bytes != module.gc_maps.bytes {
        return Err("gc-map bytes differ from m3gc_compiler::compile".into());
    }
    Ok(())
}

/// Encodes the module's gc maps under all six Table 2 schemes and builds
/// a decoder index over the production encoding, one span each. Returns
/// the total bytes encoded, which is deterministic.
///
/// # Errors
///
/// A decode-index failure on the module's own tables.
pub fn table_layers(tr: &mut Tracer, parent: SpanId, module: &VmModule) -> Result<u64, String> {
    let bytes = tr.span("core.encode", parent, |_, _| {
        Scheme::TABLE2
            .iter()
            .map(|&s| encode_module(&module.logical_maps, s).bytes.len() as u64)
            .sum()
    });
    tr.span("core.decode_index", parent, |_, _| DecoderIndex::build(&module.gc_maps))
        .map_err(|e| format!("decoder index: {e}"))?;
    Ok(bytes)
}
