//! # synergy
//!
//! The top-level facade for the SYNERGY FPGA-virtualization reproduction
//! (*Compiler-Driven FPGA Virtualization with SYNERGY*, ASPLOS 2021).
//!
//! SYNERGY virtualizes FPGAs at the language level: a compiler transformation
//! rewrites Verilog programs so they can yield control to software at
//! sub-clock-tick granularity, which gives the runtime everything it needs for
//! suspend/resume, workload migration, and spatial/temporal multiplexing — on
//! unmodified programs and stock hardware.
//!
//! This crate re-exports the individual layers and provides [`SynergyVm`], a
//! convenience wrapper that wires them together the way the paper's evaluation
//! does: a cluster of simulated devices, a shared bitstream cache, one hypervisor
//! per device, and the Table-1 benchmark suite.
//!
//! ## Layer map
//!
//! | Layer | Crate | Paper section |
//! |-------|-------|---------------|
//! | Verilog frontend | [`vlog`] | §2 |
//! | Software engine (interpreter) | [`interp`] | §2.1 |
//! | Compiled software engine (netlist IR + bytecode) | [`codegen`] | §2.1 |
//! | Compiler transformations | [`transform`] | §3 |
//! | Simulated FPGA substrate | [`fpga`] | §5.1, §6 |
//! | Runtime + engines | [`runtime`] | §2.1, §3.5 |
//! | AmorphOS protection layer | [`amorphos`] | §2.2, §5.2 |
//! | Hypervisor + cluster | [`hv`] | §4 |
//! | Benchmarks | [`workloads`] | Table 1 |
//!
//! ## Quickstart
//!
//! ```
//! use synergy::{Device, SynergyVm};
//!
//! let mut vm = SynergyVm::new();
//! let de10 = vm.add_device(Device::de10());
//! let app = vm.launch_benchmark(de10, "bitcoin", false)?;
//! vm.deploy(de10, app)?;
//! vm.run_round(de10, 0.0001)?;
//! assert!(vm.metric(de10, app)? > 0);
//! # Ok::<(), synergy::SynergyError>(())
//! ```

#![warn(missing_docs)]

pub mod golden;

pub use synergy_amorphos as amorphos;
pub use synergy_codegen as codegen;
pub use synergy_fpga as fpga;
pub use synergy_hv as hv;
pub use synergy_interp as interp;
pub use synergy_runtime as runtime;
pub use synergy_snapshot as snapshot;
pub use synergy_telemetry as telemetry;
pub use synergy_transform as transform;
pub use synergy_vlog as vlog;
pub use synergy_workloads as workloads;

pub use synergy_amorphos::DomainId;
pub use synergy_codegen::{CompiledProgram, CompiledSim};
pub use synergy_fpga::{BitstreamCache, Device, RamStyle, SynthOptions, SynthReport};
pub use synergy_hv::{
    AppId, Cluster, ControlConfig, ControlPlane, DeployOutcome, FaultKind, FaultPlan, Hypervisor,
    NodeId, RecoveryReport, RoundStats, SchedPolicy, TenantSpec,
};
pub use synergy_opt as opt;
pub use synergy_runtime::{CheckpointError, EnginePolicy, ExecMode, Runtime, RuntimeEvent};
pub use synergy_snapshot::SnapshotError;
pub use synergy_telemetry::{FlightRecorder, Namespace, Registry, Telemetry};
pub use synergy_transform::{transform as transform_design, TransformOptions, Transformed};
pub use synergy_vlog::{Bits, VlogError};
pub use synergy_workloads::{Benchmark, Style};

use std::fmt;

/// Errors surfaced by the [`SynergyVm`] facade.
#[derive(Debug)]
pub enum SynergyError {
    /// An error from the Verilog frontend, interpreter, or transformations.
    Vlog(VlogError),
    /// An error from the hypervisor layer.
    Hypervisor(synergy_hv::HvError),
    /// The requested benchmark does not exist.
    UnknownBenchmark(String),
}

impl fmt::Display for SynergyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynergyError::Vlog(e) => write!(f, "{}", e),
            SynergyError::Hypervisor(e) => write!(f, "{}", e),
            SynergyError::UnknownBenchmark(name) => write!(f, "unknown benchmark '{}'", name),
        }
    }
}

impl std::error::Error for SynergyError {}

impl From<VlogError> for SynergyError {
    fn from(e: VlogError) -> Self {
        SynergyError::Vlog(e)
    }
}

impl From<synergy_hv::HvError> for SynergyError {
    fn from(e: synergy_hv::HvError) -> Self {
        SynergyError::Hypervisor(e)
    }
}

/// Default number of input records generated for streaming benchmarks.
const DEFAULT_STREAM_LEN: usize = 1 << 20;

/// A ready-to-use SYNERGY deployment: a cluster of devices, their hypervisors, a
/// shared bitstream cache, and helpers for launching the paper's benchmarks.
pub struct SynergyVm {
    cluster: Cluster,
    next_domain: u64,
    stream_len: usize,
}

impl Default for SynergyVm {
    fn default() -> Self {
        Self::new()
    }
}

impl SynergyVm {
    /// Creates an empty virtual deployment.
    pub fn new() -> Self {
        SynergyVm {
            cluster: Cluster::new(),
            next_domain: 1,
            stream_len: DEFAULT_STREAM_LEN,
        }
    }

    /// Overrides how many input records are generated for streaming benchmarks.
    pub fn set_stream_len(&mut self, len: usize) {
        self.stream_len = len.max(1);
    }

    /// Sets the software-engine selection policy for every node: under
    /// [`EnginePolicy::Auto`] programs that are not resident on a fabric run
    /// on the compiled engine (falling back to the interpreter for designs
    /// with uncompilable constructs) instead of being interpreted.
    pub fn set_engine_policy(&mut self, policy: EnginePolicy) {
        self.cluster.set_engine_policy(policy);
    }

    /// Sets the round-scheduling policy for every node: under
    /// [`SchedPolicy::Parallel`] each hypervisor runs its tenants' round jobs
    /// on threads scoped to the round that drain one job queue, with results
    /// bit-identical to [`SchedPolicy::Sequential`].
    pub fn set_sched_policy(&mut self, sched: SchedPolicy) {
        self.cluster.set_sched_policy(sched);
    }

    /// Adds a device (node) to the deployment.
    pub fn add_device(&mut self, device: Device) -> NodeId {
        self.cluster.add_node(device)
    }

    /// The underlying cluster, for lower-level control.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Launches one of the Table-1 benchmarks on a node (software execution).
    ///
    /// `quiescent` selects the `$yield` variant used by the §6.3 experiments.
    ///
    /// # Errors
    ///
    /// Returns [`SynergyError::UnknownBenchmark`] for unknown names or a
    /// compilation error if the benchmark fails to elaborate.
    pub fn launch_benchmark(
        &mut self,
        node: NodeId,
        name: &str,
        quiescent: bool,
    ) -> Result<AppId, SynergyError> {
        let bench = synergy_workloads::by_name(name)
            .ok_or_else(|| SynergyError::UnknownBenchmark(name.to_string()))?;
        let mut runtime = Runtime::new(
            bench.name.clone(),
            bench.source_for(quiescent),
            &bench.top,
            &bench.clock,
        )?;
        if let Some(path) = &bench.input_path {
            runtime.add_file(
                path.clone(),
                synergy_workloads::input_data(&bench.name, self.stream_len),
            );
        }
        // Streaming benchmarks open their input in software before any migration,
        // exactly as the paper's workflow does.
        runtime.run_ticks(2)?;
        let domain = DomainId(self.next_domain);
        self.next_domain += 1;
        let io_bound = bench.style == Style::Streaming;
        Ok(self
            .cluster
            .node_mut(node)
            .connect(runtime, domain, io_bound))
    }

    /// Launches an arbitrary Verilog program on a node (software execution).
    ///
    /// # Errors
    ///
    /// Returns a compilation error if the program fails to elaborate.
    pub fn launch_source(
        &mut self,
        node: NodeId,
        name: &str,
        source: &str,
        top: &str,
        clock: &str,
    ) -> Result<AppId, SynergyError> {
        let runtime = Runtime::new(name, source, top, clock)?;
        let domain = DomainId(self.next_domain);
        self.next_domain += 1;
        Ok(self.cluster.node_mut(node).connect(runtime, domain, false))
    }

    /// Deploys an application to its node's FPGA fabric.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors (compilation, admission, placement).
    pub fn deploy(&mut self, node: NodeId, app: AppId) -> Result<DeployOutcome, SynergyError> {
        Ok(self.cluster.node_mut(node).deploy(app)?)
    }

    /// Runs one scheduling round of `dt` simulated seconds on a node.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors.
    pub fn run_round(&mut self, node: NodeId, dt: f64) -> Result<Vec<RoundStats>, SynergyError> {
        Ok(self.cluster.node_mut(node).run_round(dt)?)
    }

    /// Migrates a running application between nodes, preserving its state.
    ///
    /// Goes through the durable checkpoint wire format
    /// ([`Cluster::live_migrate`]): the tenant is serialized to bytes on the
    /// source node and rebuilt from them on the target, exactly as a
    /// cross-host migration or crash recovery would.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors from either node.
    pub fn migrate(
        &mut self,
        from: NodeId,
        app: AppId,
        to: NodeId,
    ) -> Result<(AppId, DeployOutcome), SynergyError> {
        let domain = DomainId(self.next_domain);
        self.next_domain += 1;
        Ok(self.cluster.live_migrate(from, app, to, domain, false)?)
    }

    /// Reads an application's work-unit counter (the benchmark's metric variable).
    ///
    /// # Errors
    ///
    /// Returns an error if the application or variable does not exist.
    pub fn metric(&self, node: NodeId, app: AppId) -> Result<u64, SynergyError> {
        let runtime = self.cluster.node(node).app(app)?;
        // Benchmarks expose their counter as `<metric>_lo`; fall back to ticks for
        // arbitrary programs.
        for bench in synergy_workloads::all() {
            if bench.name == runtime.name() {
                return Ok(runtime.get_bits(&bench.metric_var)?.to_u64());
            }
        }
        Ok(runtime.ticks())
    }

    /// Reads any scalar variable from a running application.
    ///
    /// # Errors
    ///
    /// Returns an error if the application or variable does not exist.
    pub fn read_var(&self, node: NodeId, app: AppId, var: &str) -> Result<Bits, SynergyError> {
        Ok(self.cluster.node(node).app(app)?.get_bits(var)?)
    }

    /// Access to an application's runtime.
    ///
    /// # Errors
    ///
    /// Returns an error if the application does not exist.
    pub fn app(&self, node: NodeId, app: AppId) -> Result<&Runtime, SynergyError> {
        Ok(self.cluster.node(node).app(app)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow_works() {
        let mut vm = SynergyVm::new();
        vm.set_stream_len(1024);
        let de10 = vm.add_device(Device::de10());
        let app = vm.launch_benchmark(de10, "bitcoin", false).unwrap();
        vm.deploy(de10, app).unwrap();
        vm.run_round(de10, 0.0001).unwrap();
        assert!(vm.metric(de10, app).unwrap() > 0);
        assert_eq!(
            vm.app(de10, app).unwrap().mode(),
            ExecMode::Hardware("de10".into())
        );
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let mut vm = SynergyVm::new();
        let node = vm.add_device(Device::f1());
        assert!(matches!(
            vm.launch_benchmark(node, "nonesuch", false),
            Err(SynergyError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn migration_through_the_facade_preserves_progress() {
        let mut vm = SynergyVm::new();
        vm.set_stream_len(1024);
        let de10 = vm.add_device(Device::de10());
        let f1 = vm.add_device(Device::f1());
        let app = vm.launch_benchmark(de10, "df", false).unwrap();
        vm.deploy(de10, app).unwrap();
        vm.run_round(de10, 0.0001).unwrap();
        let before = vm.metric(de10, app).unwrap();
        let (app, _) = vm.migrate(de10, app, f1).unwrap();
        assert_eq!(vm.metric(f1, app).unwrap(), before);
        vm.run_round(f1, 0.0001).unwrap();
        assert!(vm.metric(f1, app).unwrap() > before);
    }

    #[test]
    fn engine_policy_runs_benchmarks_on_the_compiled_engine() {
        let mut vm = SynergyVm::new();
        vm.set_stream_len(1024);
        vm.set_engine_policy(EnginePolicy::Auto);
        let node = vm.add_device(Device::f1());
        let app = vm.launch_benchmark(node, "bitcoin", false).unwrap();
        assert_eq!(vm.app(node, app).unwrap().mode(), ExecMode::Compiled);
        vm.run_round(node, 0.001).unwrap();
        assert!(vm.metric(node, app).unwrap() > 0);
        // Deployment still moves the program onward to hardware.
        vm.deploy(node, app).unwrap();
        assert_eq!(
            vm.app(node, app).unwrap().mode(),
            ExecMode::Hardware("f1".into())
        );
    }

    #[test]
    fn custom_sources_can_be_launched() {
        let mut vm = SynergyVm::new();
        let node = vm.add_device(Device::f1());
        let app = vm
            .launch_source(
                node,
                "blinky",
                r#"module Blinky(input wire clock, output wire led);
                       reg [0:0] state = 0;
                       always @(posedge clock) state <= ~state;
                       assign led = state;
                   endmodule"#,
                "Blinky",
                "clock",
            )
            .unwrap();
        vm.deploy(node, app).unwrap();
        vm.run_round(node, 0.00005).unwrap();
        assert!(vm.app(node, app).unwrap().ticks() > 0);
    }
}
