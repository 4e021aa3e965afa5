//! One tenant's program — the part that stays the same while the engine
//! under it changes (§2.1, §3.5) — and the one way to seat it on an engine.
//! Each artefact exists once per *process*: tenants of the same source text
//! find one another through a weak interner and share the design, the
//! compiled engine and the fabric image through `Arc`s. A program lives as
//! long as its last owner: a tenant, or its node cache's entry — the bitstream
//! built for it, or its refusal.
//! See "Program ownership" in `docs/ARCHITECTURE.md`.

use crate::engine::{CompiledEngine, Engine, HardwareEngine, SoftwareEngine};
use crate::fabric::CompiledFabric;
use crate::runtime::ExecMode;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use synergy_fpga::{BitstreamCache, CompileOutcome, Device, SynthOptions};
use synergy_opt::OptReport;
use synergy_telemetry::{Namespace, Telemetry};
use synergy_transform::{transform, TransformOptions, Transformed};
use synergy_vlog::ast::SystemTask;
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::{VlogError, VlogResult};

/// A [`Runtime`](crate::Runtime)'s handle on everything derived from its
/// source text. What is derived lives in a [`Shared`]; the handle adds what
/// is the tenant's own: what it has already prepared and reported.
pub(crate) struct Program {
    shared: Arc<Shared>,
    /// The transformed design, once this tenant has prepared for (or been
    /// seated on) hardware.
    pub(crate) transformed: Option<Arc<Transformed>>,
    /// The optimiser's telemetry describes the program, not who built it:
    /// every tenant reports it once, on its first compiled seat.
    opt_reported: bool,
}

/// The artefacts of one *(source, top, clock)*, immutable once built and
/// built at most once: by the first tenant that needs each.
struct Shared {
    source: String,
    top: String,
    clock: String,
    /// Hash of the three strings: the interner bucket.
    key: u64,
    design: Arc<ElabModule>,
    /// The compiled rung's artefact: a pristine (never ticked) engine whose
    /// clones share its optimised program and word code and copy only the
    /// reset registers. A design that does not lower is remembered as that.
    compiled: OnceLock<Lowered>,
    /// The hardware rung's artefacts. A design the transformation (or the
    /// compiler, its transformed form) refuses is remembered as that.
    transformed: OnceLock<VlogResult<Arc<Transformed>>>,
    image: OnceLock<VlogResult<Arc<FabricImage>>>,
}

/// A design lowered, optimised and instantiated.
pub(crate) struct Lowered {
    /// What the optimiser did, if lowering got that far.
    opt: Option<OptStats>,
    pub(crate) engine: VlogResult<CompiledEngine>,
}

struct OptStats {
    ops_before: u64,
    ops_after: u64,
    report: OptReport,
}

/// What the fabric rung executes: the compiled transformed design, never
/// ticked. A seat is a clone. A [`BitstreamCache`] entry holds the image its
/// bitstream stands for (in a [`Cached`]), so the image outlives the tenants
/// that built it for as long as the cache does.
pub(crate) struct FabricImage {
    pub(crate) pristine: CompiledFabric,
    /// What the image was specialised to beyond the transformed text, which
    /// is all a bitstream is keyed by: the virtual clock it resolved, and the
    /// task table whose arguments it keeps observable.
    clock: String,
    tasks: Vec<SystemTask>,
}

impl FabricImage {
    /// Lowers and optimises `transformed` and resolves its ABI wires.
    ///
    /// # Errors
    ///
    /// `Unsupported` for a transformed design outside the compilable
    /// envelope; an error if `clock` is not one of its inputs.
    pub(crate) fn build(transformed: &Transformed, clock: &str) -> VlogResult<FabricImage> {
        // The transformation moved every `$display`/`$fread`/… out of the
        // module and into the task table, so nothing in the module reads
        // their arguments any more: the runtime does, by name, on a trap.
        let tasks = &transformed.machine.tasks;
        let observed = tasks
            .iter()
            .flat_map(|t| &t.args)
            .flat_map(|arg| arg.idents());
        let engine = lower(&transformed.elab, "__clk", observed).engine?;
        Ok(FabricImage {
            pristine: CompiledFabric::new(engine, clock)?,
            clock: clock.to_string(),
            tasks: tasks.clone(),
        })
    }

    /// Whether this image, found under `transformed`'s text, is `transformed`
    /// on `clock`: two programs that differ only in what their tasks print
    /// transform to the same text (and share a bitstream) but not an image.
    fn stands_for(&self, transformed: &Transformed, clock: &str) -> bool {
        self.clock == clock && self.tasks == transformed.machine.tasks
    }
}

/// What a [`BitstreamCache`] entry keeps beside its bitstream: the image it
/// stands for and the program that image was built for. A hit offers only the
/// image; holding the program makes the entry one of its owners, so a later
/// tenant of the source finds it through the interner, built. Nothing a
/// [`Shared`] owns reaches an entry, so this makes no cycle.
struct Cached {
    image: Arc<FabricImage>,
    _program: Arc<Shared>,
}

/// Lowers `design`, optimises it and instantiates it on `clock` — the one
/// place any of the three happens — keeping every variable in `observed`
/// readable by name.
fn lower<'a>(
    design: &ElabModule,
    clock: &str,
    observed: impl IntoIterator<Item = &'a str>,
) -> Lowered {
    let mut prog = match synergy_codegen::compile(design) {
        Ok(prog) => prog,
        Err(e) => {
            return Lowered {
                opt: None,
                engine: Err(e),
            }
        }
    };
    observed.into_iter().for_each(|name| prog.observe(name));
    optimise_and_seat(prog, clock)
}

/// The second half of [`lower`]. A malformed program or a missing clock
/// input is a typed error for this one tenant; there is no second executor
/// to fall back to.
pub(crate) fn optimise_and_seat(
    mut prog: synergy_codegen::CompiledProgram,
    clock: &str,
) -> Lowered {
    let ops_before = prog.op_count() as u64;
    let report = synergy_opt::optimize(&mut prog);
    Lowered {
        opt: Some(OptStats {
            ops_before,
            ops_after: prog.op_count() as u64,
            report,
        }),
        engine: CompiledEngine::from_program(prog, clock),
    }
}

/// The interner: every live [`Shared`], by the hash of its strings. Weak, so
/// a program dies with its last owner (its tenants and its cache entry, a
/// bitstream or a refusal), whose drop prunes the entry, and a sweep over
/// twenty thousand sources retains only what a cache does; process-wide, because
/// `Runtime::with_policy` and `Runtime::restore_checkpoint` take no handle
/// through which a narrower one could reach them.
static PROGRAMS: Mutex<BTreeMap<u64, Vec<Weak<Shared>>>> = Mutex::new(BTreeMap::new());

fn programs() -> MutexGuard<'static, BTreeMap<u64, Vec<Weak<Shared>>>> {
    // Every update leaves the map valid, so a poisoned lock is still good.
    PROGRAMS.lock().unwrap_or_else(|e| e.into_inner())
}

impl Drop for Shared {
    fn drop(&mut self) {
        let mut programs = programs();
        if let Some(bucket) = programs.get_mut(&self.key) {
            bucket.retain(|p| p.strong_count() > 0);
            if bucket.is_empty() {
                programs.remove(&self.key);
            }
        }
    }
}

impl Shared {
    fn key(source: &str, top: &str, clock: &str) -> u64 {
        let mut h = DefaultHasher::new();
        (source, top, clock).hash(&mut h);
        h.finish()
    }

    /// The live program of exactly these strings, if anything owns one.
    fn find(key: u64, source: &str, top: &str, clock: &str) -> Option<Arc<Shared>> {
        // Declared first, dropped last: letting go of another program's last
        // handle prunes its entry, which takes the lock `programs` holds.
        let mut others = Vec::new();
        let programs = programs();
        for p in programs.get(&key)?.iter().filter_map(Weak::upgrade) {
            if p.source == source && p.top == top && p.clock == clock {
                return Some(p);
            }
            others.push(p);
        }
        None
    }

    /// Publishes a program just built, unless a tenant racing this one
    /// published the same strings first: then that one, and `built` is
    /// dropped. Either way every tenant of these strings holds one program.
    fn publish(built: Arc<Shared>) -> Arc<Shared> {
        // Dropped after the lock, as in `find`.
        let mut others = Vec::new();
        let first = {
            let mut programs = programs();
            let bucket = programs.entry(built.key).or_default();
            let mut first = None;
            for p in bucket.iter().filter_map(Weak::upgrade) {
                if p.source == built.source && p.top == built.top && p.clock == built.clock {
                    first = Some(p);
                    break;
                }
                others.push(p);
            }
            if first.is_none() {
                bucket.push(Arc::downgrade(&built));
            }
            first
        };
        first.unwrap_or(built)
    }
}

/// Counts one request for a shared artefact: a miss built it, a hit found it
/// built. Who builds depends on who came first, so neither is deterministic.
fn note_share(telem: &mut Telemetry, artefact: &'static str, built: bool) {
    let name = if built {
        "program_share_misses_total"
    } else {
        "program_share_hits_total"
    };
    telem
        .registry
        .counter_add(Namespace::NonDet, name, &[("artefact", artefact)], 1);
}

impl Program {
    /// The program of these strings: the one a live tenant or a cached
    /// bitstream already holds, else parsed and elaborated now. The rest is
    /// built when a rung first asks. (Two tenants racing to be the first both
    /// build, and both keep the one published first.)
    pub(crate) fn new(
        source: String,
        top: String,
        clock: String,
        telem: &mut Telemetry,
    ) -> VlogResult<Program> {
        let key = Shared::key(&source, &top, &clock);
        let found = Shared::find(key, &source, &top, &clock);
        note_share(telem, "design", found.is_none());
        let shared = match found {
            Some(shared) => shared,
            None => {
                let design = Arc::new(synergy_vlog::compile(&source, &top)?);
                Shared::publish(Arc::new(Shared {
                    source,
                    top,
                    clock,
                    key,
                    design,
                    compiled: OnceLock::new(),
                    transformed: OnceLock::new(),
                    image: OnceLock::new(),
                }))
            }
        };
        Ok(Program {
            shared,
            transformed: None,
            opt_reported: false,
        })
    }

    /// The program's source text.
    pub(crate) fn source(&self) -> &str {
        &self.shared.source
    }

    /// The top module name.
    pub(crate) fn top(&self) -> &str {
        &self.shared.top
    }

    /// The name of the clock input.
    pub(crate) fn clock(&self) -> &str {
        &self.shared.clock
    }

    /// The elaborated (untransformed) design.
    pub(crate) fn design(&self) -> &Arc<ElabModule> {
        &self.shared.design
    }

    /// The one engine construction site: every rung, for every caller. The
    /// engine comes up in reset state; the caller moves captured state in.
    ///
    /// # Errors
    ///
    /// What building the rung's artefact reports (`Unsupported` for a design
    /// outside the compilable or the transformable envelope); the
    /// interpreter always seats.
    pub(crate) fn seat(
        &mut self,
        rung: &ExecMode,
        telem: &mut Telemetry,
        ticks: u64,
    ) -> VlogResult<Box<dyn Engine>> {
        Ok(match rung {
            ExecMode::Software => Box::new(SoftwareEngine::new(
                Arc::clone(&self.shared.design),
                self.shared.clock.as_str(),
            )),
            ExecMode::Compiled => Box::new(self.seat_compiled(telem, ticks)?),
            ExecMode::Hardware(device) => {
                let image = self.image(None, telem)?;
                let transformed = Arc::clone(self.transformed(telem)?);
                Box::new(HardwareEngine::from_image(
                    transformed,
                    &image,
                    device.as_str(),
                ))
            }
        })
    }

    /// A clone of the pristine engine, which the first tenant to ask builds.
    /// A seat that does not happen is counted, per attempt, under the bare
    /// `Unsupported` reason or, for an internal failure, the error.
    fn seat_compiled(&mut self, telem: &mut Telemetry, ticks: u64) -> VlogResult<CompiledEngine> {
        let shared = &self.shared;
        let mut built = false;
        let lowered = shared.compiled.get_or_init(|| {
            built = true;
            lower(&shared.design, &shared.clock, [])
        });
        note_share(telem, "compiled", built);
        if let (Some(opt), false) = (&lowered.opt, self.opt_reported) {
            self.opt_reported = true;
            report_opt(opt, telem, ticks);
        }
        if let Err(e) = &lowered.engine {
            let reason = match e {
                VlogError::Unsupported(reason) => reason.clone(),
                other => other.to_string(),
            };
            telem.registry.counter_add(
                Namespace::Det,
                "runtime_engine_fallbacks_total",
                &[("reason", reason.as_str())],
                1,
            );
            telem.recorder.record(ticks, "engine_fallback", reason);
        }
        lowered.engine.clone()
    }

    /// The transformed design, which the first tenant to ask transforms.
    pub(crate) fn transformed(&mut self, telem: &mut Telemetry) -> VlogResult<&Arc<Transformed>> {
        Ok(match &mut self.transformed {
            Some(t) => t,
            none => {
                let shared = &self.shared;
                let mut built = false;
                let t = shared.transformed.get_or_init(|| {
                    built = true;
                    transform(&shared.design, TransformOptions::default()).map(Arc::new)
                });
                note_share(telem, "transformed", built);
                none.insert(t.clone()?)
            }
        })
    }

    /// The fabric image: the one a tenant of this program already has, else
    /// `offered` if it is this program's, else built now.
    fn image(
        &mut self,
        offered: Option<Arc<FabricImage>>,
        telem: &mut Telemetry,
    ) -> VlogResult<Arc<FabricImage>> {
        let transformed = Arc::clone(self.transformed(telem)?);
        let shared = &self.shared;
        let mut built = false;
        let image = shared.image.get_or_init(|| match offered {
            Some(image) if image.stands_for(&transformed, &shared.clock) => Ok(image),
            _ => {
                built = true;
                FabricImage::build(&transformed, &shared.clock).map(Arc::new)
            }
        });
        note_share(telem, "fabric", built);
        image.clone()
    }

    /// Steps 1–2 of Figure 6 for `device`: the transformed design, its fabric
    /// image, and — exactly one lookup — its bitstream from `cache`. A hit is
    /// a built image (§5.1): the entry holds the one made by whoever deployed
    /// this text first, and a program that has none yet adopts it. A miss
    /// stores this program beside its image, which keeps it alive with the
    /// entry.
    ///
    /// # Errors
    ///
    /// A design the transformation refuses, or whose transformed form the
    /// compiler refuses; no bitstream is looked up or stored then. The
    /// program remembers the refusal, and `cache` keeps the program as its
    /// refusal entry, so a later tenant of the source is told without
    /// building anything for as long as the cache lives.
    pub(crate) fn prepare_hardware(
        &mut self,
        device: &Device,
        cache: &BitstreamCache,
        telem: &mut Telemetry,
    ) -> VlogResult<CompileOutcome> {
        let prepared = self.compile_through(device, cache, telem);
        if prepared.is_err() {
            cache.keep_refused(self.shared.key, Arc::clone(&self.shared) as _);
        }
        prepared
    }

    /// The body of [`prepare_hardware`](Self::prepare_hardware). Every error
    /// it returns is one the program's `OnceLock`s remember.
    fn compile_through(
        &mut self,
        device: &Device,
        cache: &BitstreamCache,
        telem: &mut Telemetry,
    ) -> VlogResult<CompileOutcome> {
        let transformed = Arc::clone(self.transformed(telem)?);
        let options = SynthOptions::synergy(
            device,
            transformed.state.captured_bits() as u64,
            transformed.state.vars.len() as u64,
        );
        let (outcome, cached) = cache.compile(
            transformed.digest,
            &transformed.elab,
            device,
            options,
            || {
                Ok(Arc::new(Cached {
                    image: self.image(None, telem)?,
                    _program: Arc::clone(&self.shared),
                }))
            },
        )?;
        if outcome.cache_hit {
            self.image(Some(Arc::clone(&cached.image)), telem)?;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
impl Program {
    /// Makes `lowered` what this program lowers to (before anything asked).
    pub(crate) fn set_lowered(&self, lowered: Lowered) {
        assert!(self.shared.compiled.set(lowered).is_ok(), "already lowered");
    }
}

/// Optimiser telemetry: rewrite and revert counters per pass plus the total
/// op shrinkage, in the deterministic namespace, for `fleetstat` to
/// aggregate. It describes the program, so a tenant records the same figures
/// whether it built the program or found it built.
fn report_opt(opt: &OptStats, telem: &mut Telemetry, ticks: u64) {
    for p in &opt.report.passes {
        telem.registry.counter_add(
            Namespace::Det,
            "opt_pass_rewrites_total",
            &[("pass", p.name)],
            p.rewrites,
        );
        if p.reverted {
            telem.registry.counter_add(
                Namespace::Det,
                "opt_pass_reverts_total",
                &[("pass", p.name)],
                1,
            );
        }
    }
    telem.registry.counter_add(
        Namespace::Det,
        "opt_ops_removed_total",
        &[],
        opt.ops_before.saturating_sub(opt.ops_after),
    );
    telem.recorder.record(
        ticks,
        "optimize",
        format!(
            "{} -> {} ops, {} rewrites",
            opt.ops_before,
            opt.ops_after,
            opt.report.total_rewrites()
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnginePolicy, Runtime};

    /// A counter nobody else in this test binary runs: tests share a process,
    /// and so an interner.
    fn counter(tag: &str) -> String {
        format!(
            r#"module Counter(input wire clock, output wire [31:0] out);
                   reg [31:0] count = 0; // {}
                   always @(posedge clock) count <= count + 1;
                   assign out = count;
               endmodule"#,
            tag
        )
    }

    /// A counter the transformation refuses: a `for` loop holding a task.
    fn refused(tag: &str) -> String {
        format!(
            r#"module Counter(input wire clock, output wire [31:0] out);
                   reg [31:0] count = 0; // {}
                   integer i = 0;
                   always @(posedge clock) begin
                       count <= count + 1;
                       for (i = 0; i < 2; i = i + 1) $display(i);
                   end
                   assign out = count;
               endmodule"#,
            tag
        )
    }

    fn auto(src: &str) -> Runtime {
        Runtime::with_policy("c", src, "Counter", "clock", EnginePolicy::Auto).unwrap()
    }

    fn image(rt: &Runtime) -> &Arc<FabricImage> {
        rt.program.shared.image.get().unwrap().as_ref().unwrap()
    }

    fn misses(rt: &Runtime) -> u64 {
        ["design", "compiled", "transformed", "fabric"]
            .iter()
            .map(|a| {
                rt.metrics().counter_value(
                    Namespace::NonDet,
                    "program_share_misses_total",
                    &[("artefact", a)],
                )
            })
            .sum()
    }

    #[test]
    fn two_seats_share_one_program_and_diverge_in_state() {
        synergy_telemetry::set_enabled(true);
        let src = counter("two seats");
        let (mut a, mut b) = (auto(&src), auto(&src));
        let cache = BitstreamCache::new();
        for rt in [&mut a, &mut b] {
            rt.run_ticks(2).unwrap();
            rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        }
        assert!(Arc::ptr_eq(&a.program.shared, &b.program.shared));
        assert!(Arc::ptr_eq(
            a.program.transformed.as_ref().unwrap(),
            b.program.transformed.as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(image(&a), image(&b)));
        assert_eq!((misses(&a), misses(&b)), (4, 0), "a built, b found");

        a.run_ticks(3).unwrap();
        b.run_ticks(7).unwrap();
        assert_eq!(a.get_bits("count").unwrap().to_u64(), 5);
        assert_eq!(b.get_bits("count").unwrap().to_u64(), 9);
        // Back in software they run clones of one pristine compiled engine.
        a.migrate_to_compiled().unwrap();
        b.migrate_to_compiled().unwrap();
        let (mut telem, lowered) = (Telemetry::default(), &a.program.shared.compiled);
        let fresh = b.program.seat_compiled(&mut telem, 0).unwrap();
        assert!(std::ptr::eq(
            fresh.sim().program(),
            lowered
                .get()
                .unwrap()
                .engine
                .as_ref()
                .unwrap()
                .sim()
                .program()
        ));
        assert_eq!(fresh.get("count").unwrap().as_scalar().to_u64(), 0);
        assert_eq!(b.get_bits("count").unwrap().to_u64(), 9);
    }

    #[test]
    fn a_restore_beside_its_live_original_builds_nothing() {
        synergy_telemetry::set_enabled(true);
        let src = counter("restore");
        for hardware in [false, true] {
            let mut rt = auto(&src);
            rt.run_ticks(3).unwrap();
            if hardware {
                rt.migrate_to_hardware(&Device::f1(), &BitstreamCache::new())
                    .unwrap();
            }
            let mut back = Runtime::restore_checkpoint(&rt.save_checkpoint()).unwrap();
            assert_eq!(back.mode(), rt.mode());
            assert!(Arc::ptr_eq(&back.program.shared, &rt.program.shared));
            assert_eq!(misses(&back), 0, "nothing parsed, lowered or transformed");
            back.run_ticks(4).unwrap();
            rt.run_ticks(4).unwrap();
            assert_eq!(back.peek_state(), rt.peek_state());
        }
    }

    #[test]
    fn a_program_dies_with_its_last_owner() {
        let sources: Vec<String> = (0..1000).map(|i| counter(&format!("#{}", i))).collect();
        let interned = |src: &String| {
            let key = Shared::key(src, "Counter", "clock");
            programs().contains_key(&key)
        };
        let cache = BitstreamCache::new();
        let mut alive = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            let mut rt = auto(src);
            // Some get as far as the fabric. The first stores its program
            // beside the bitstream, which the rest hit: an entry owns the
            // program it was built for, not every program that finds it.
            if i % 100 == 0 {
                rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
            }
            if i % 2 == 0 {
                assert!(interned(src));
                alive.push(rt);
            }
        }
        assert_eq!(sources.iter().filter(|s| interned(s)).count(), 500);
        // A refused program has no bitstream: the cache keeps its refusal,
        // and that owns the program.
        let refusals: Vec<String> = (0..10).map(|i| refused(&format!("#{}", i))).collect();
        for src in &refusals {
            let err = auto(src).migrate_to_hardware(&Device::f1(), &cache);
            assert!(matches!(err, Err(VlogError::Unsupported(_))), "{:?}", err);
        }
        assert!(
            refusals.iter().all(interned),
            "the cache-held refusals stay"
        );
        drop(alive);
        let kept: Vec<&String> = sources.iter().filter(|s| interned(s)).collect();
        assert_eq!(kept, [&sources[0]], "the cache-held program stays");
        assert_eq!(cache.len(), 1, "one transformed text, one bitstream");
        drop(cache);
        assert_eq!(sources.iter().filter(|s| interned(s)).count(), 0);
        assert_eq!(refusals.iter().filter(|s| interned(s)).count(), 0);
    }

    #[test]
    fn a_refused_source_readmitted_after_its_last_tenant_left_builds_nothing() {
        synergy_telemetry::set_enabled(true);
        let src = refused("readmitted");
        let cache = BitstreamCache::new();
        let admit = || {
            let mut rt = auto(&src);
            rt.run_ticks(1).unwrap();
            let err = rt.migrate_to_hardware(&Device::f1(), &cache).unwrap_err();
            assert!(matches!(err, VlogError::Unsupported(_)), "{:?}", err);
            assert_eq!(rt.mode(), ExecMode::Compiled, "refused, it stays put");
            let built = ["design", "compiled", "transformed"].map(|a| {
                rt.metrics().counter_value(
                    Namespace::NonDet,
                    "program_share_misses_total",
                    &[("artefact", a)],
                )
            });
            (err, built)
        };
        let (first, built) = admit();
        assert_eq!(built, [1, 1, 1], "the first tenant builds");
        let (second, built) = admit();
        assert_eq!(built, [0, 0, 0], "the cache's refusal kept the program");
        assert_eq!(second, first);
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), Default::default());
    }

    #[test]
    fn deterministic_telemetry_does_not_say_who_built() {
        synergy_telemetry::set_enabled(true);
        let src = counter("det");
        let run = || {
            let mut rt = auto(&src);
            rt.run_ticks(5).unwrap();
            rt.migrate_to_hardware(&Device::f1(), &BitstreamCache::new())
                .unwrap();
            rt.run_ticks(5).unwrap();
            rt
        };
        let built = run();
        let shared = run();
        assert_eq!((misses(&built), misses(&shared)), (4, 0));
        assert_eq!(built.metrics().det_text(), shared.metrics().det_text());
        assert!(built.metrics().det_text().contains("opt_ops_removed_total"));
        assert_eq!(built.flight_dump(), shared.flight_dump());
    }

    #[test]
    fn an_uncompilable_design_is_lowered_once_and_its_reason_remembered() {
        synergy_telemetry::set_enabled(true);
        // Multiply-driven nets are outside the compilable envelope.
        let src = r#"module M(input wire clock, output wire [7:0] o);
                         wire [7:0] a = 1; // lowered once
                         assign o = a;
                         assign o = a + 1;
                     endmodule"#;
        let mut rt = Runtime::new("m", src, "M", "clock").unwrap();
        let first = rt.migrate_to_compiled().unwrap_err();
        let VlogError::Unsupported(reason) = &first else {
            panic!("expected Unsupported, got {:?}", first);
        };
        assert_eq!(rt.migrate_to_compiled().unwrap_err(), first);
        assert_eq!(rt.seat_software(EnginePolicy::Auto), Ok(0));
        assert_eq!(rt.mode(), ExecMode::Software);
        // The failure belongs to the source: another tenant of it is told the
        // same without lowering anything.
        let mut other = Runtime::new("m2", src, "M", "clock").unwrap();
        assert_eq!(other.migrate_to_compiled().unwrap_err(), first);
        let lowerings = |rt: &Runtime| {
            rt.metrics().counter_value(
                Namespace::NonDet,
                "program_share_misses_total",
                &[("artefact", "compiled")],
            )
        };
        assert_eq!((lowerings(&rt), lowerings(&other)), (1, 0));
        // The fallback telemetry still fires per attempt.
        let fallbacks = |rt: &Runtime| {
            rt.metrics().counter_value(
                Namespace::Det,
                "runtime_engine_fallbacks_total",
                &[("reason", reason.as_str())],
            )
        };
        assert_eq!((fallbacks(&rt), fallbacks(&other)), (3, 1));
        assert_eq!(rt.flight_dump().matches("engine_fallback").count(), 3);
    }

    #[test]
    fn a_bitstream_hit_is_not_another_programs_image() {
        // The transformed text says only *that* a task traps; what it prints
        // is in the task table. These two share a text, and so a bitstream.
        let src = |what: &str| {
            format!(
                r#"module M(input wire clock);
                       reg [7:0] n = 0;
                       wire [7:0] twice = n + n;
                       wire [7:0] thrice = twice + n;
                       always @(posedge clock) begin
                           n <= n + 1;
                           $display({});
                       end
                   endmodule"#,
                what
            )
        };
        let cache = BitstreamCache::new();
        let mut outputs = Vec::new();
        for what in ["twice", "thrice", "twice"] {
            let mut rt = Runtime::new("m", &src(what), "M", "clock").unwrap();
            rt.run_ticks(1).unwrap();
            rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
            rt.run_ticks(2).unwrap();
            outputs.push(rt.env.output_text());
        }
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 2));
        assert_eq!(outputs, ["0\n2\n4\n", "0\n3\n6\n", "0\n2\n4\n"]);
    }
}
