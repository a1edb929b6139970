//! `jit_compile`: compile from text, nothing executed. Parse and verify
//! the IR, run `Full` with interprocedural inference and value-numbered
//! non-nullness on, then lower, emit, round-trip the ELF and verify the
//! binary.

use njc_arch::Platform;
use njc_ir::{FuncBuilder, FunctionId, Module, Type};
use njc_opt::{ConfigKind, OptConfig};
use njc_workloads::gen::{self, Rng};

use crate::pipeline::{self, Compiled};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{ratio, shuffle, Measured, Metrics, Tally, Workload, THREADS};

/// Copies of every function in a replicated program (8× its size).
const REPLICAS: usize = 8;
/// Seeded generated programs added to the replicated suite.
const GENERATED: usize = 8;
/// Actions per generated program.
const GEN_ACTIONS: usize = 48;

pub struct Input {
    pub name: String,
    /// The module's classes and method tables, with placeholder bodies
    /// the parsed functions replace.
    pub skeleton: Module,
    /// Source text of every function, in function-index order.
    pub texts: Vec<String>,
}

pub struct JitCompile {
    pub inputs: Vec<Input>,
    platform: Platform,
    config: OptConfig,
}

pub struct Out {
    parsed: Result<Module, String>,
    verified: Result<(), String>,
    compiled: Option<Compiled>,
}

/// `module` with every function cloned `copies` times under suffixed
/// names; clones keep their callee ids, so the module stays well formed.
fn replicate(module: &Module, copies: usize) -> Module {
    let mut m = module.clone();
    let originals = m.functions().to_vec();
    for k in 1..copies {
        for f in &originals {
            let mut c = f.clone();
            c.set_name(format!("{}__copy{k}", f.name()));
            m.add_function(c);
        }
    }
    m
}

fn placeholder(name: &str) -> njc_ir::Function {
    let mut b = FuncBuilder::new(name, &[], Type::Int);
    let zero = b.iconst(0);
    b.ret(Some(zero));
    b.finish()
}

fn to_input(name: String, module: &Module) -> Input {
    let mut skeleton = module.clone();
    let mut texts = Vec::with_capacity(module.num_functions());
    for fi in 0..module.num_functions() {
        let fid = FunctionId::new(fi);
        let f = module.function(fid);
        texts.push(f.to_string());
        *skeleton.function_mut(fid) = placeholder(f.name());
    }
    Input {
        name,
        skeleton,
        texts,
    }
}

impl JitCompile {
    /// Prints the replicated suite and the seeded generated programs to
    /// text, in a seeded order.
    pub fn setup(seed: u64) -> Self {
        let mut inputs: Vec<Input> = njc_workloads::all()
            .iter()
            .map(|w| {
                to_input(
                    format!("{} x{REPLICAS}", w.name),
                    &replicate(&w.module, REPLICAS),
                )
            })
            .collect();
        let mut rng = Rng::new(seed);
        for k in 0..GENERATED {
            let module = if k % 2 == 0 {
                gen::build_call_module(&gen::gen_call_actions(&mut rng, GEN_ACTIONS, 2))
            } else {
                gen::build_module(&gen::gen_actions(&mut rng, GEN_ACTIONS, 2))
            };
            inputs.push(to_input(format!("gen{k}"), &module));
        }
        shuffle(&mut inputs, &mut rng);
        let platform = Platform::windows_ia32();
        let config = OptConfig {
            interproc: true,
            gvn: true,
            threads: THREADS,
            ..ConfigKind::Full.to_config(&platform)
        };
        JitCompile {
            inputs,
            platform,
            config,
        }
    }
}

fn parse(input: &Input) -> Result<Module, String> {
    let mut m = input.skeleton.clone();
    for (fi, text) in input.texts.iter().enumerate() {
        let f = njc_ir::parse_function(text).map_err(|e| format!("function {fi}: {e}"))?;
        *m.function_mut(FunctionId::new(fi)) = f;
    }
    Ok(m)
}

impl Workload for JitCompile {
    type Out = Out;

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn name(&self, i: usize) -> String {
        self.inputs[i].name.clone()
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Out {
        let input = &self.inputs[i];
        tr.span("compile", |tr| {
            let parsed = tr.span("ir.parse", |_| parse(input));
            let Ok(module) = &parsed else {
                return Out {
                    parsed,
                    verified: Err("not parsed".into()),
                    compiled: None,
                };
            };
            let verified = tr.span("ir.verify", |_| {
                njc_ir::verify_module(module).map_err(|errs| {
                    format!("{} IR verifier error(s), first: {}", errs.len(), errs[0])
                })
            });
            let compiled = verified
                .is_ok()
                .then(|| pipeline::compile(module.clone(), &self.platform, &self.config, tr));
            Out {
                parsed,
                verified,
                compiled,
            }
        })
    }

    fn check(&self, i: usize, out: &Out) -> Result<Tally, String> {
        let input = &self.inputs[i];
        let module = out.parsed.as_ref().map_err(|e| format!("parse: {e}"))?;
        // The parsed program must print back to exactly the text it came
        // from: the printer is the independent reference for the parser.
        for (fi, text) in input.texts.iter().enumerate() {
            if module.function(FunctionId::new(fi)).to_string() != *text {
                return Err(format!("function {fi} does not print back to its source"));
            }
        }
        out.verified.clone()?;
        let compiled = out.compiled.as_ref().ok_or("not compiled")?;
        let mut tally = Tally::default();
        pipeline::check(compiled, &mut tally)?;
        tally.det("ir.bytes", input.texts.iter().map(|t| t.len() as u64).sum());
        Ok(tally)
    }

    fn layer_metrics(&self, m: &Measured<'_>) -> Metrics {
        let mut out = Metrics::new();
        pipeline::layer_metrics(m, &mut out);
        let tr = m.tracer;
        let parse_ms = tr.durations_ms("ir.parse");
        out.insert("ir.parse_ms", stats::mean(&parse_ms));
        out.insert(
            "ir.parse_mb_per_s",
            ratio(
                m.total.get_det("ir.bytes") as f64 / 1e6,
                parse_ms.iter().sum::<f64>() / 1e3,
            ),
        );
        out.insert("ir.verify_ms", tr.mean_ms("ir.verify"));
        out
    }
}
