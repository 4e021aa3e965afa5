//! Durable tenant checkpoints: the `synergy-snapshot` wire format applied to
//! a whole [`Runtime`].
//!
//! In-memory state capture ([`Runtime::save`] / [`Runtime::restore`]) moves a
//! program between engines inside one process. This module makes the same
//! capture *durable*: [`Runtime::save_checkpoint`] encodes everything a fresh
//! process needs to resume the tenant — source program, engine placement,
//! architectural state, named `$save` checkpoints, the system-task
//! environment (open stream positions, captured output, RNG state), and the
//! simulated clocks — and [`Runtime::restore_checkpoint`] rebuilds a running
//! [`Runtime`] from those bytes. Cross-node live migration
//! (`Cluster::live_migrate` in `synergy-hv`) and the CI golden-checkpoint
//! gate both ride this exact byte path.
//!
//! Checkpoints are captured at virtual-tick boundaries (the only place the
//! runtime calls the engine's `save_state`), where non-blocking assignment
//! queues are structurally empty — pending NB schedules therefore never need
//! encoding, matching the in-memory
//! [`StateSnapshot`](synergy_interp::StateSnapshot) contract.
//!
//! ## Runtime payload layout (wire-format version 1, frame kind [`KIND_RUNTIME`])
//!
//! | field | encoding |
//! |-------|----------|
//! | name, source, top, clock | 4 strings |
//! | retired engine-policy byte | `u8`: written as 0; 0, 1 and 2 accepted and ignored |
//! | retired compiled-tier byte | `u8`: written as 1; 0 and 1 accepted and ignored |
//! | execution mode | `u8`: 0 software, 1 compiled, 2 hardware (+ device-name string) |
//! | flags | `u8`: bit 0 initials-run, bit 1 finished (+ `u32` exit code) |
//! | retired transform-options byte | `u8`: written as 0; anything else is `Malformed` |
//! | clock\_hz, transport\_ns, now\_ns, ticks | 4 × `u64` |
//! | profiler | `u64` last-ticks, `f64` last-time, `u32` n × (`f64` time, `u64` ticks, `f64` hz) |
//! | environment | output strings, sorted files, stream images, next-fd, RNG, read count |
//! | live state | one `StateSnapshot` |
//! | named checkpoints | `u32` n × (tag string, `StateSnapshot`) |
//!
//! See the `synergy-snapshot` crate docs for the frame header, primitive
//! encodings, CRC trailer, and the version policy.

use crate::program::Program;
use crate::runtime::{ExecMode, Profiler, Runtime, Sample};
use std::collections::BTreeMap;
use std::fmt;
use synergy_fpga::SimClock;
use synergy_interp::{BufferEnv, EnvImage, EnvView, StreamImage};
use synergy_snapshot::{decode_frame_of, Reader, SnapshotError, Writer, KIND_RUNTIME};
use synergy_vlog::VlogError;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The bytes are not a valid checkpoint (truncation, corruption, wrong
    /// kind or version, malformed payload). Never a panic.
    Decode(SnapshotError),
    /// The bytes decoded, but rebuilding the runtime from the embedded
    /// program failed (it no longer compiles, transforms, or lowers under
    /// this build).
    Rebuild(VlogError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Decode(e) => write!(f, "checkpoint decode failed: {}", e),
            CheckpointError::Rebuild(e) => write!(f, "checkpoint rebuild failed: {}", e),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Decode(e)
    }
}

impl From<VlogError> for CheckpointError {
    fn from(e: VlogError) -> Self {
        CheckpointError::Rebuild(e)
    }
}

fn put_env(w: &mut Writer, env: &EnvView<'_>) {
    w.put_u32(env.output.len() as u32);
    for s in env.output {
        w.put_str(s);
    }
    w.put_u32(env.files.len() as u32);
    for &(path, data) in &env.files {
        w.put_str(path);
        w.put_u32(data.len() as u32);
        w.put_words(data);
    }
    w.put_u32(env.streams.len() as u32);
    for stream in &env.streams {
        match stream {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                w.put_u32(s.data.len() as u32);
                w.put_words(s.data);
                w.put_u64(s.pos);
                w.put_bool(s.eof);
            }
        }
    }
    w.put_u32(env.next_fd);
    w.put_u64(env.rng_state);
    w.put_u64(env.reads);
}

fn get_env(r: &mut Reader<'_>) -> Result<EnvImage, SnapshotError> {
    let n_output = r.get_count(4)?;
    let mut output = Vec::with_capacity(n_output);
    for _ in 0..n_output {
        output.push(r.get_str()?);
    }
    let n_files = r.get_count(8)?;
    let mut files = Vec::with_capacity(n_files);
    for _ in 0..n_files {
        let path = r.get_str()?;
        let len = r.get_count(8)?;
        files.push((path, r.get_words(len)?));
    }
    let n_streams = r.get_count(1)?;
    let mut streams = Vec::with_capacity(n_streams);
    for _ in 0..n_streams {
        streams.push(match r.get_u8()? {
            0 => None,
            1 => {
                let len = r.get_count(8)?;
                Some(StreamImage {
                    data: r.get_words(len)?,
                    pos: r.get_u64()?,
                    eof: r.get_bool()?,
                })
            }
            tag => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown stream tag {}",
                    tag
                )))
            }
        });
    }
    Ok(EnvImage {
        output,
        files,
        streams,
        next_fd: r.get_u32()?,
        rng_state: r.get_u64()?,
        reads: r.get_u64()?,
    })
}

fn put_profiler(w: &mut Writer, p: &Profiler) {
    w.put_u64(p.last_ticks);
    w.put_f64(p.last_time_s);
    w.put_u32(p.samples.len() as u32);
    for s in p.samples() {
        w.put_f64(s.time_s);
        w.put_u64(s.ticks);
        w.put_f64(s.virtual_hz);
    }
}

fn get_profiler(r: &mut Reader<'_>) -> Result<Profiler, SnapshotError> {
    let last_ticks = r.get_u64()?;
    let last_time_s = r.get_f64()?;
    let n = r.get_count(24)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        samples.push(Sample {
            time_s: r.get_f64()?,
            ticks: r.get_u64()?,
            virtual_hz: r.get_f64()?,
        });
    }
    Ok(Profiler {
        samples,
        last_time_s,
        last_ticks,
    })
}

impl Runtime {
    /// Serializes the complete tenant into the durable checkpoint wire
    /// format (see the [module docs](self) for the byte layout).
    ///
    /// Call this between [`Runtime::run_ticks`] calls — the tenant is then
    /// quiesced at a virtual-tick boundary, which is the state-capture
    /// contract shared with `$save` and engine migration. The returned bytes
    /// are self-contained: they embed the program source, so a fresh process
    /// (or a different cluster node) can resume from them alone.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put_checkpoint_payload(&mut w);
        let bytes = w.into_frame(KIND_RUNTIME);
        self.count_encoded(bytes.len());
        bytes
    }

    /// Writes this tenant's checkpoint frame into a parent frame under
    /// construction, as a length-prefixed blob: byte for byte the
    /// [`Runtime::save_checkpoint`] frame behind its `u64` length, written
    /// in place and never copied or re-read by the parent (a fleet
    /// checkpoint's tenants ride this path).
    pub fn put_checkpoint(&self, w: &mut Writer) {
        let len = w.put_frame(KIND_RUNTIME, |w| self.put_checkpoint_payload(w));
        self.count_encoded(len);
    }

    fn count_encoded(&self, len: usize) {
        if synergy_telemetry::enabled() {
            let mut t = self.telem.lock().unwrap_or_else(|e| e.into_inner());
            t.registry.counter_add(
                synergy_telemetry::Namespace::Det,
                "checkpoint_encode_bytes_total",
                &[],
                len as u64,
            );
        }
    }

    fn put_checkpoint_payload(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_str(self.program.source());
        w.put_str(self.program.top());
        w.put_str(self.program.clock());
        // The retired engine-policy and compiled-tier bytes: always what
        // `Runtime::new` and a default build wrote.
        w.put_u8(0);
        w.put_u8(1);
        match self.mode() {
            ExecMode::Software => w.put_u8(0),
            ExecMode::Compiled => w.put_u8(1),
            ExecMode::Hardware(device) => {
                w.put_u8(2);
                w.put_str(&device);
            }
        }
        let finished = self.finished();
        let mut flags = 0u8;
        if self.engine.initials_run() {
            flags |= 1;
        }
        if finished.is_some() {
            flags |= 2;
        }
        w.put_u8(flags);
        if let Some(code) = finished {
            w.put_u32(code);
        }
        // The retired transform-options byte: a tenant is always transformed
        // with the defaults.
        w.put_u8(0);
        w.put_u64(self.clock_hz);
        w.put_u64(self.transport_ns);
        w.put_u64(self.sim.now_ns());
        w.put_u64(self.ticks);
        put_profiler(w, &self.profiler);
        put_env(w, &self.env.view());
        w.put_state(&self.engine.save_state());
        w.put_u32(self.checkpoints.len() as u32);
        for (tag, snapshot) in &self.checkpoints {
            w.put_str(tag);
            w.put_state(snapshot);
        }
    }

    /// Rebuilds a running tenant from checkpoint bytes.
    ///
    /// The program is the one a live tenant of the embedded source already
    /// holds, else recompiled from it; the engine is
    /// reconstructed on the checkpointed rung of the engine ladder
    /// (interpreter, compiled engine, or hardware), architectural state and the
    /// system-task environment are restored bit for bit, and `initial`
    /// blocks are *not* replayed (their side effects, such as `$fopen`, are
    /// already reflected in the restored environment). Onward execution is
    /// bit-identical to the uninterrupted run — the property the CI
    /// `snapshot-compat` gate enforces on the committed goldens.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] for bytes that are not a valid
    /// version-1 runtime frame (truncation, corruption, unknown version —
    /// always typed, never a panic), and [`CheckpointError::Rebuild`] when
    /// the embedded program no longer compiles under this build.
    pub fn restore_checkpoint(bytes: &[u8]) -> Result<Runtime, CheckpointError> {
        // CRC/framing failures happen before any runtime exists to own the
        // count, so they land in the process-global telemetry registry
        // (exported by `fleetstat`, never merged into per-node metrics).
        let payload = decode_frame_of(bytes, KIND_RUNTIME).map_err(|e| {
            if matches!(e, SnapshotError::Corrupt { .. }) && synergy_telemetry::enabled() {
                synergy_telemetry::with_global(|r| {
                    r.counter_add(
                        synergy_telemetry::Namespace::Det,
                        "checkpoint_crc_failures_total",
                        &[],
                        1,
                    );
                });
            }
            e
        })?;
        let mut r = Reader::new(payload);
        let name = r.get_str()?;
        let source = r.get_str()?;
        let top = r.get_str()?;
        let clock = r.get_str()?;
        // The retired engine-policy byte (0 interpreter, 1 compiled, 2 auto):
        // validated as before, then ignored — the engine is the mode below.
        match r.get_u8()? {
            0..=2 => {}
            tag => {
                return Err(SnapshotError::Malformed(format!("unknown policy tag {}", tag)).into())
            }
        }
        // The retired compiled-tier byte (0 stack, 1 regalloc): validated as
        // before, then ignored — there is one compiled executor.
        match r.get_u8()? {
            0 | 1 => {}
            tag => {
                return Err(SnapshotError::Malformed(format!("unknown tier tag {}", tag)).into())
            }
        }
        let mode = match r.get_u8()? {
            0 => ExecMode::Software,
            1 => ExecMode::Compiled,
            2 => ExecMode::Hardware(r.get_str()?),
            tag => {
                return Err(SnapshotError::Malformed(format!("unknown mode tag {}", tag)).into())
            }
        };
        let flags = r.get_u8()?;
        let initials_run = flags & 1 != 0;
        let finished = if flags & 2 != 0 {
            Some(r.get_u32()?)
        } else {
            None
        };
        // The retired transform-options byte. A tenant transformed any other
        // way would print differently on the fabric, so such a checkpoint is
        // refused rather than resumed as something else.
        match r.get_u8()? {
            0 => {}
            opts => {
                return Err(SnapshotError::Malformed(format!(
                    "retired transform options {:#x}",
                    opts
                ))
                .into())
            }
        }
        let clock_hz = r.get_u64()?;
        let transport_ns = r.get_u64()?;
        let now_ns = r.get_u64()?;
        let ticks = r.get_u64()?;
        let profiler = get_profiler(&mut r)?;
        let env = get_env(&mut r)?;
        let live = r.get_state()?;
        let n_checkpoints = r.get_count(13)?;
        let mut checkpoints = BTreeMap::new();
        for _ in 0..n_checkpoints {
            let tag = r.get_str()?;
            let snapshot = r.get_state()?;
            checkpoints.insert(tag, snapshot);
        }
        r.finish()?;

        // Telemetry is observability, not architectural state: a restored
        // runtime starts with fresh counters and an empty flight recorder.
        let mut telem = synergy_telemetry::Telemetry::default();
        telem.registry.counter_add(
            synergy_telemetry::Namespace::Det,
            "checkpoint_decode_bytes_total",
            &[],
            bytes.len() as u64,
        );

        // Rebuild the program and seat it on the checkpointed engine rung.
        let mut program = Program::new(source, top, clock, &mut telem)?;
        let mut engine = program.seat(&mode, &mut telem, ticks)?;
        engine.restore_state(&live);
        if initials_run {
            engine.mark_initials_run();
        }

        let mut sim = SimClock::new();
        sim.advance_ns(now_ns);
        Ok(Runtime {
            name,
            program,
            engine,
            env: BufferEnv::from_image(env),
            clock_hz,
            transport_ns,
            sim,
            ticks,
            profiler,
            checkpoints,
            finished,
            telem: std::sync::Mutex::new(telem),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::EnginePolicy;
    use synergy_fpga::{BitstreamCache, Device};
    use synergy_snapshot::{crc32, decode_frame, KIND_FLEET, MAGIC, VERSION};
    use synergy_vlog::Bits;

    const STREAMER: &str = r#"
        module Stream(input wire clock, output wire [31:0] out);
            integer fd = $fopen("stream.bin");
            reg [31:0] r = 0;
            reg [31:0] reads = 0;
            always @(posedge clock) begin
                $fread(fd, r);
                if (!$feof(fd)) reads <= reads + 1;
            end
            assign out = reads;
        endmodule
    "#;

    fn streamer(policy: EnginePolicy) -> Runtime {
        let mut rt = Runtime::with_policy("s", STREAMER, "Stream", "clock", policy).unwrap();
        rt.add_file("stream.bin", (0..64).map(|i| i * 3 + 1).collect());
        rt
    }

    #[test]
    fn checkpoint_round_trips_streams_without_replaying_initials() {
        // The $fopen initializer must run exactly once across the whole
        // checkpointed lifetime: the restored runtime continues the stream
        // from the captured position instead of re-opening it.
        for policy in [EnginePolicy::Interpreter, EnginePolicy::Auto] {
            let mut original = streamer(policy);
            original.run_ticks(10).unwrap();
            let bytes = original.save_checkpoint();

            let mut restored = Runtime::restore_checkpoint(&bytes).unwrap();
            assert_eq!(restored.mode(), original.mode());
            assert_eq!(restored.ticks(), original.ticks());
            assert_eq!(restored.now_ns(), original.now_ns());
            assert_eq!(restored.peek_state(), original.peek_state());

            original.run_ticks(17).unwrap();
            restored.run_ticks(17).unwrap();
            assert_eq!(
                restored.peek_state(),
                original.peek_state(),
                "onward execution diverged under {:?}",
                policy
            );
            assert_eq!(
                restored.get_bits("reads").unwrap().to_u64(),
                27,
                "no records replayed, none skipped"
            );
        }
    }

    #[test]
    fn checkpoint_re_encodes_byte_identically() {
        for policy in [EnginePolicy::Interpreter, EnginePolicy::Auto] {
            let mut rt = streamer(policy);
            rt.run_ticks(9).unwrap();
            rt.save("mid");
            rt.run_ticks(3).unwrap();
            let bytes = rt.save_checkpoint();
            let restored = Runtime::restore_checkpoint(&bytes).unwrap();
            assert_eq!(
                restored.save_checkpoint(),
                bytes,
                "decode → encode must be the identity under {:?}",
                policy
            );
            assert!(restored.checkpoints().contains_key("mid"));
        }
    }

    #[test]
    fn a_stream_and_its_replaced_file_re_encode_byte_identically() {
        // After the replacement the stream reads the old words and the file
        // holds new ones: the two share nothing, on the wire or restored.
        let mut rt = streamer(EnginePolicy::Auto);
        rt.run_ticks(5).unwrap();
        rt.add_file("stream.bin", vec![7; 80]);
        let bytes = rt.save_checkpoint();
        let mut restored = Runtime::restore_checkpoint(&bytes).unwrap();
        assert_eq!(restored.save_checkpoint(), bytes);
        rt.run_ticks(70).unwrap();
        restored.run_ticks(70).unwrap();
        assert_eq!(restored.peek_state(), rt.peek_state());
        assert_eq!(rt.get_bits("reads").unwrap().to_u64(), 64, "the old words");
        assert_eq!(restored.save_checkpoint(), rt.save_checkpoint());
    }

    #[test]
    fn a_checkpoint_written_into_a_parent_is_its_saved_frame_behind_its_length() {
        let mut rt = streamer(EnginePolicy::Auto);
        rt.run_ticks(5).unwrap();
        rt.save("mid");
        let alone = rt.save_checkpoint();
        let mut w = Writer::new();
        w.put_str("head");
        rt.put_checkpoint(&mut w);
        rt.put_checkpoint(&mut w);
        let parent = w.into_frame(KIND_FLEET);

        // What the copying encoder wrote — the saved frame appended as a
        // blob, twice — sealed by a full scan.
        let mut payload = 4u32.to_le_bytes().to_vec();
        payload.extend_from_slice(b"head");
        for _ in 0..2 {
            payload.extend_from_slice(&(alone.len() as u64).to_le_bytes());
            payload.extend_from_slice(&alone);
        }
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&VERSION.to_le_bytes());
        expected.push(KIND_FLEET);
        expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        expected.extend_from_slice(&payload);
        let crc = crc32(&expected);
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(parent, expected);
    }

    #[test]
    fn hardware_mode_checkpoints_restore_onto_the_same_device() {
        let src = r#"module Counter(input wire clock, output wire [31:0] out);
                         reg [31:0] count = 0;
                         always @(posedge clock) count <= count + 1;
                         assign out = count;
                     endmodule"#;
        let mut rt = Runtime::new("c", src, "Counter", "clock").unwrap();
        let cache = BitstreamCache::new();
        rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        rt.run_ticks(13).unwrap();
        let bytes = rt.save_checkpoint();

        let mut restored = Runtime::restore_checkpoint(&bytes).unwrap();
        assert_eq!(restored.mode(), ExecMode::Hardware("f1".into()));
        assert_eq!(restored.clock_hz(), rt.clock_hz());
        restored.run_ticks(7).unwrap();
        rt.run_ticks(7).unwrap();
        assert_eq!(restored.peek_state(), rt.peek_state());
        assert_eq!(restored.get_bits("count").unwrap().to_u64(), 20);
    }

    #[test]
    fn finished_programs_stay_finished_across_the_wire() {
        let src = r#"module M(input wire clock);
                         reg [3:0] n = 0;
                         always @(posedge clock) begin
                             n <= n + 1;
                             if (n == 2) $finish(9);
                         end
                     endmodule"#;
        let mut rt = Runtime::new("f", src, "M", "clock").unwrap();
        rt.run_to_completion(100).unwrap();
        assert_eq!(rt.finished(), Some(9));
        let restored = Runtime::restore_checkpoint(&rt.save_checkpoint()).unwrap();
        assert_eq!(restored.finished(), Some(9));
    }

    #[test]
    fn corrupt_and_truncated_checkpoints_are_typed_errors() {
        let mut rt = streamer(EnginePolicy::Interpreter);
        rt.run_ticks(4).unwrap();
        let bytes = rt.save_checkpoint();

        // Truncation at a few representative boundaries.
        for len in [0, 3, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                Runtime::restore_checkpoint(&bytes[..len]),
                Err(CheckpointError::Decode(_))
            ));
        }
        // A flipped payload bit is caught by the CRC trailer.
        let mut bad = bytes.clone();
        bad[40] ^= 0x10;
        assert!(matches!(
            Runtime::restore_checkpoint(&bad),
            Err(CheckpointError::Decode(SnapshotError::Corrupt { .. }))
        ));
        // The pristine bytes still decode.
        assert!(decode_frame(&bytes).is_ok());
        assert!(Runtime::restore_checkpoint(&bytes).is_ok());
    }

    #[test]
    fn inputs_written_mid_run_survive_via_state() {
        let src = r#"module M(input wire clock, input wire [7:0] step, output wire [31:0] acc_o);
                         reg [31:0] acc = 0;
                         always @(posedge clock) acc <= acc + step;
                         assign acc_o = acc;
                     endmodule"#;
        let mut rt = Runtime::new("m", src, "M", "clock").unwrap();
        rt.set("step", Bits::from_u64(8, 5)).unwrap();
        rt.run_ticks(4).unwrap();
        let restored = Runtime::restore_checkpoint(&rt.save_checkpoint()).unwrap();
        assert_eq!(restored.get_bits("acc").unwrap().to_u64(), 20);
    }

    /// Where the retired policy and transform-options bytes sit in the
    /// payload of `bytes`, a runtime frame.
    fn retired_bytes_at(bytes: &[u8]) -> (usize, usize) {
        let payload = decode_frame_of(bytes, KIND_RUNTIME).unwrap();
        let mut r = Reader::new(payload);
        let at = |r: &Reader<'_>| payload.len() - r.remaining();
        for _ in 0..4 {
            r.get_str().unwrap();
        }
        let policy = at(&r);
        r.get_u8().unwrap(); // policy
        r.get_u8().unwrap(); // tier
        if r.get_u8().unwrap() == 2 {
            r.get_str().unwrap(); // device
        }
        if r.get_u8().unwrap() & 2 != 0 {
            r.get_u32().unwrap(); // exit code
        }
        (policy, at(&r))
    }

    /// `bytes` with payload byte `at` set to `v`, sealed as a fresh frame.
    fn with_payload_byte(bytes: &[u8], at: usize, v: u8) -> Vec<u8> {
        let payload = decode_frame_of(bytes, KIND_RUNTIME).unwrap();
        let mut w = Writer::new();
        for (i, &b) in payload.iter().enumerate() {
            w.put_u8(if i == at { v } else { b });
        }
        w.into_frame(KIND_RUNTIME)
    }

    #[test]
    fn a_retired_policy_byte_restores_and_re_encodes_as_zero() {
        for policy in [EnginePolicy::Interpreter, EnginePolicy::Auto] {
            let mut rt = streamer(policy);
            rt.run_ticks(6).unwrap();
            let bytes = rt.save_checkpoint();
            let (at, _) = retired_bytes_at(&bytes);
            assert_eq!(decode_frame_of(&bytes, KIND_RUNTIME).unwrap()[at], 0);
            // What a build that still had the compiled (1) and auto (2)
            // policies wrote restores to the same tenant, written back as 0.
            for old in [1, 2] {
                let mut restored =
                    Runtime::restore_checkpoint(&with_payload_byte(&bytes, at, old)).unwrap();
                assert_eq!(restored.mode(), rt.mode());
                assert_eq!(restored.save_checkpoint(), bytes, "policy byte {}", old);
                restored.run_ticks(3).unwrap();
                assert_eq!(restored.get_bits("reads").unwrap().to_u64(), 9);
            }
            assert!(matches!(
                Runtime::restore_checkpoint(&with_payload_byte(&bytes, at, 3)),
                Err(CheckpointError::Decode(SnapshotError::Malformed(_)))
            ));
        }
    }

    #[test]
    fn a_retired_transform_options_byte_other_than_zero_is_malformed() {
        let mut rt = streamer(EnginePolicy::Auto);
        rt.run_ticks(4).unwrap();
        rt.migrate_to_hardware(&Device::f1(), &BitstreamCache::new())
            .unwrap();
        let bytes = rt.save_checkpoint();
        let (_, at) = retired_bytes_at(&bytes);
        assert_eq!(decode_frame_of(&bytes, KIND_RUNTIME).unwrap()[at], 0);
        // Bit 0 was strip-tasks, bit 1 split-all-branches: either would
        // resume a tenant that prints differently from the one saved.
        for opts in [1, 2, 3] {
            match Runtime::restore_checkpoint(&with_payload_byte(&bytes, at, opts)) {
                Err(CheckpointError::Decode(SnapshotError::Malformed(what))) => {
                    assert!(what.contains("transform options"), "{}", what)
                }
                other => panic!("options byte {}: {:?}", opts, other.map(|rt| rt.mode())),
            }
        }
        assert!(Runtime::restore_checkpoint(&with_payload_byte(&bytes, at, 0)).is_ok());
    }
}
