//! The system-task environment: how unsynthesizable Verilog reaches OS-managed
//! resources.
//!
//! The paper's key point (§3) is that unsynthesizable constructs such as `$display`
//! and file IO become *interfaces to OS-managed resources* once the compiler can
//! yield control at sub-clock-tick granularity. In this reproduction the interpreter
//! and the hardware engine both route those constructs through the [`SystemEnv`]
//! trait; the runtime supplies an implementation backed by in-memory data streams
//! and the hypervisor's IO path.

use std::collections::HashMap;
use synergy_vlog::Bits;

/// Control-flow effects a system task can request from its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskEffect {
    /// Continue normal execution.
    Continue,
    /// `$finish(code)` was executed.
    Finish(u32),
    /// `$save("tag")` was executed — the caller should capture state.
    Save(String),
    /// `$restart("tag")` was executed — the caller should restore state.
    Restart(String),
    /// `$yield` was executed — the program is at an application-defined
    /// quiescence point (§5.3).
    Yield,
}

/// Host environment for unsynthesizable system tasks.
///
/// Implementations decide where `$display` output goes, what backs file
/// descriptors, and how `$save`/`$restart`/`$yield` are surfaced to the runtime.
pub trait SystemEnv {
    /// Handles `$display`/`$write` output (the newline is already appended for
    /// `$display`).
    fn print(&mut self, text: &str);

    /// Opens a file path and returns a descriptor.
    fn fopen(&mut self, path: &str) -> u32;

    /// Reads the next `width`-bit value from the descriptor. Returns `None` at
    /// end-of-file.
    fn fread(&mut self, fd: u32, width: usize) -> Option<Bits>;

    /// End-of-file predicate for a descriptor.
    fn feof(&mut self, fd: u32) -> bool;

    /// Closes a descriptor.
    fn fclose(&mut self, fd: u32);

    /// Returns a pseudo-random 32-bit value (`$random`).
    fn random(&mut self) -> u32;
}

/// A [`SystemEnv`] backed by in-memory buffers, suitable for tests and for the
/// simulated data-center workloads used in the evaluation.
#[derive(Debug, Default)]
pub struct BufferEnv {
    /// Captured `$display`/`$write` output.
    pub output: Vec<String>,
    files: HashMap<String, Vec<u64>>,
    /// Streams indexed by `fd - 1` (descriptors are handed out
    /// sequentially); `None` marks a closed descriptor. Dense storage keeps
    /// the per-`$fread` cost to an array index on the simulation hot path.
    streams: Vec<Option<FileStream>>,
    next_fd: u32,
    rng_state: u64,
    /// Total number of values served through `$fread`.
    pub reads: u64,
}

#[derive(Debug)]
struct FileStream {
    data: Vec<u64>,
    pos: usize,
    /// Set after a read attempt fails, matching C/Verilog `feof` semantics: the
    /// flag becomes true only once a read has gone past the end.
    eof: bool,
}

/// A serializable image of one open (or closed) `$fopen` stream, part of
/// [`EnvImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamImage {
    /// The stream's backing data (cloned from the file at `$fopen` time).
    pub data: Vec<u64>,
    /// Read cursor.
    pub pos: u64,
    /// Whether a read has already gone past the end.
    pub eof: bool,
}

/// A complete, serializable image of a [`BufferEnv`]: registered files, open
/// stream positions, captured output, and the RNG state. This is the
/// "tenant environment" section of a durable checkpoint — restoring it (via
/// [`BufferEnv::from_image`]) reproduces every `$fread`/`$feof`/`$random`
/// outcome bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvImage {
    /// Captured `$display`/`$write` output fragments, in emission order.
    pub output: Vec<String>,
    /// Registered files, sorted by path (deterministic encoding).
    pub files: Vec<(String, Vec<u64>)>,
    /// Streams indexed by `fd - 1`; `None` marks a closed descriptor.
    pub streams: Vec<Option<StreamImage>>,
    /// Next descriptor `$fopen` will hand out.
    pub next_fd: u32,
    /// `$random` generator state.
    pub rng_state: u64,
    /// Total values served through `$fread`.
    pub reads: u64,
}

/// A borrowed [`StreamImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamView<'a> {
    /// The stream's backing data.
    pub data: &'a [u64],
    /// Read cursor.
    pub pos: u64,
    /// Whether a read has already gone past the end.
    pub eof: bool,
}

/// A borrowed [`EnvImage`]: the same fields, in the same order, read in
/// place from a [`BufferEnv`] (see [`BufferEnv::view`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvView<'a> {
    /// Captured `$display`/`$write` output fragments, in emission order.
    pub output: &'a [String],
    /// Registered files, sorted by path.
    pub files: Vec<(&'a str, &'a [u64])>,
    /// Streams indexed by `fd - 1`; `None` marks a closed descriptor.
    pub streams: Vec<Option<StreamView<'a>>>,
    /// Next descriptor `$fopen` will hand out.
    pub next_fd: u32,
    /// `$random` generator state.
    pub rng_state: u64,
    /// Total values served through `$fread`.
    pub reads: u64,
}

impl EnvView<'_> {
    /// The owned image of this view.
    pub fn to_image(&self) -> EnvImage {
        EnvImage {
            output: self.output.to_vec(),
            files: self
                .files
                .iter()
                .map(|&(path, data)| (path.to_string(), data.to_vec()))
                .collect(),
            streams: self
                .streams
                .iter()
                .map(|s| {
                    s.map(|s| StreamImage {
                        data: s.data.to_vec(),
                        pos: s.pos,
                        eof: s.eof,
                    })
                })
                .collect(),
            next_fd: self.next_fd,
            rng_state: self.rng_state,
            reads: self.reads,
        }
    }
}

impl BufferEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        BufferEnv {
            next_fd: 1,
            rng_state: 0x9e3779b97f4a7c15,
            ..Default::default()
        }
    }

    /// Registers an in-memory "file" of 64-bit values that `$fopen` can open by
    /// path.
    pub fn add_file(&mut self, path: impl Into<String>, data: Vec<u64>) {
        self.files.insert(path.into(), data);
    }

    /// All captured output joined into one string.
    pub fn output_text(&self) -> String {
        self.output.concat()
    }

    /// Captures the complete environment state for a durable checkpoint.
    pub fn image(&self) -> EnvImage {
        self.view().to_image()
    }

    /// The environment state [`BufferEnv::image`] captures, borrowed in
    /// place: what a checkpoint encoder walks without copying a file or a
    /// stream.
    pub fn view(&self) -> EnvView<'_> {
        let mut files: Vec<(&str, &[u64])> = self
            .files
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        files.sort_unstable_by_key(|&(path, _)| path);
        EnvView {
            output: &self.output,
            files,
            streams: self
                .streams
                .iter()
                .map(|s| {
                    s.as_ref().map(|s| StreamView {
                        data: &s.data,
                        pos: s.pos as u64,
                        eof: s.eof,
                    })
                })
                .collect(),
            next_fd: self.next_fd,
            rng_state: self.rng_state,
            reads: self.reads,
        }
    }

    /// Reconstructs an environment from a checkpointed image.
    pub fn from_image(image: EnvImage) -> BufferEnv {
        BufferEnv {
            output: image.output,
            files: image.files.into_iter().collect(),
            streams: image
                .streams
                .into_iter()
                .map(|s| {
                    s.map(|s| FileStream {
                        data: s.data,
                        pos: s.pos as usize,
                        eof: s.eof,
                    })
                })
                .collect(),
            next_fd: image.next_fd,
            rng_state: image.rng_state,
            reads: image.reads,
        }
    }
}

impl SystemEnv for BufferEnv {
    fn print(&mut self, text: &str) {
        self.output.push(text.to_string());
    }

    fn fopen(&mut self, path: &str) -> u32 {
        let data = self.files.get(path).cloned().unwrap_or_default();
        let fd = self.next_fd;
        self.next_fd += 1;
        self.streams.push(Some(FileStream {
            data,
            pos: 0,
            eof: false,
        }));
        fd
    }

    fn fread(&mut self, fd: u32, width: usize) -> Option<Bits> {
        let stream = self
            .streams
            .get_mut((fd as usize).wrapping_sub(1))?
            .as_mut()?;
        if stream.pos >= stream.data.len() {
            stream.eof = true;
            return None;
        }
        let v = stream.data[stream.pos];
        stream.pos += 1;
        self.reads += 1;
        Some(Bits::from_u64(width.max(1), v))
    }

    fn feof(&mut self, fd: u32) -> bool {
        match self.streams.get((fd as usize).wrapping_sub(1)) {
            Some(Some(s)) => s.eof,
            _ => true,
        }
    }

    fn fclose(&mut self, fd: u32) {
        if let Some(slot) = self.streams.get_mut((fd as usize).wrapping_sub(1)) {
            *slot = None;
        }
    }

    fn random(&mut self) -> u32 {
        // xorshift64*; deterministic so experiments are reproducible.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fread_walks_registered_file() {
        let mut env = BufferEnv::new();
        env.add_file("data", vec![1, 2, 3]);
        let fd = env.fopen("data");
        assert!(!env.feof(fd));
        assert_eq!(env.fread(fd, 32).unwrap().to_u64(), 1);
        assert_eq!(env.fread(fd, 32).unwrap().to_u64(), 2);
        assert_eq!(env.fread(fd, 32).unwrap().to_u64(), 3);
        // As with C's feof, the flag is only raised once a read fails.
        assert!(!env.feof(fd));
        assert!(env.fread(fd, 32).is_none());
        assert!(env.feof(fd));
        assert_eq!(env.reads, 3);
    }

    #[test]
    fn unknown_path_opens_empty_file() {
        let mut env = BufferEnv::new();
        let fd = env.fopen("missing");
        assert!(env.fread(fd, 32).is_none());
        assert!(env.feof(fd));
    }

    #[test]
    fn random_is_deterministic() {
        let mut a = BufferEnv::new();
        let mut b = BufferEnv::new();
        assert_eq!(a.random(), b.random());
        assert_ne!(a.random(), a.random());
    }

    #[test]
    fn env_image_round_trips_stream_positions_and_rng() {
        let mut env = BufferEnv::new();
        env.add_file("data", vec![1, 2, 3, 4]);
        env.print("hello");
        let fd = env.fopen("data");
        let closed = env.fopen("missing");
        env.fclose(closed);
        env.fread(fd, 32).unwrap();
        env.fread(fd, 32).unwrap();
        env.random();

        env.add_file("another", vec![9]);
        let mut restored = BufferEnv::from_image(env.image());
        assert_eq!(restored.image(), env.image(), "image is stable");
        assert_eq!(restored.view(), env.view(), "so is the borrowed view");
        assert_eq!(env.view().files[0], ("another", &[9u64][..]), "sorted");
        // Both lineages continue identically: same next record, same eof
        // transition, same RNG draws, same fd numbering.
        assert_eq!(
            restored.fread(fd, 32).unwrap().to_u64(),
            env.fread(fd, 32).unwrap().to_u64()
        );
        assert_eq!(restored.random(), env.random());
        assert_eq!(restored.fopen("data"), env.fopen("data"));
        assert_eq!(restored.output_text(), env.output_text());
        assert!(restored.fread(closed, 32).is_none(), "closed stays closed");
    }

    #[test]
    fn print_captures_output() {
        let mut env = BufferEnv::new();
        env.print("hello ");
        env.print("world");
        assert_eq!(env.output_text(), "hello world");
    }
}
