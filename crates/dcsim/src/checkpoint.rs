//! Crash-safe checkpoint/restore for the simulation engine, and the
//! sealed container that every file the repo reads back is written in.
//!
//! A checkpoint is a versioned, self-describing snapshot of the
//! *entire* deterministic state of a [`crate::Simulation`] — cluster
//! SoA vectors, VM table, the event queue, every seeded RNG stream,
//! in-flight control-plane exchanges, fault schedules, statistics and
//! streaming series. Only primary state is stored: what the rest of
//! the snapshot or the scenario determines (queued arrivals, the alive
//! set, VM hosts, reservation counts, scheduled monitor chains, clock
//! copies, per-server counts) the decoders rebuild, so a snapshot has
//! no copy that could contradict its source. Because the engine is a
//! pure function of `(Fleet, Workload, SimConfig, policy seed)` and
//! all of its mutable state, restoring a snapshot and continuing
//! produces **byte-identical** results to the uninterrupted run;
//! `Simulation::restore_from` debug-asserts this with a round-trip
//! oracle (re-snapshot the restored engine, diff every section).
//!
//! # File format
//!
//! Checkpoints, sweep artifacts (`.ecor`) and trace files (`ECOT`)
//! share one container ([`Sealed`]) and one bounded decoder ([`Dec`]).
//! Each [`FileKind`] has its own magic and layout version; the rest is
//! common. Little-endian throughout:
//!
//! ```text
//! magic            per kind: b"ECOCKPT1", b"ECOR" or b"ECOT"
//! format version   u16   per kind; bumped on any layout change
//! total length     u64   length of the whole file, trailer included
//! section count    u32
//!   per section:   name str (u32 len + UTF-8 bytes), u32 byte length,
//!                  payload bytes
//! checksum         u64   word-wise sum over everything above (`checksum`)
//! ```
//!
//! A checkpoint's first section, `identity`, holds the crate version,
//! the caller-supplied run spec (`RunSpec` canonical), the sequence
//! number (monotonic per run) and the simulated time at capture; the
//! state sections follow it.
//!
//! The total-length field makes torn writes (truncation at any byte)
//! detectable without parsing; the checksum catches bit rot and
//! interior corruption. The version follows the magic directly, so the
//! files written before a kind was sealed (a `u32` version in a
//! checkpoint, a `u16` one in a trace file) are refused by their
//! version number. Scalars use fixed-width little-endian encoding
//! and floats round-trip through `to_bits`/`from_bits`, so a value is
//! restored to the exact bit pattern that was captured — the
//! foundation of the byte-identical resume guarantee.
//!
//! # Crash safety
//!
//! [`Checkpoint::write_atomic`] never leaves a path without a valid
//! snapshot: the new file is written to `<path>.tmp`, fsynced, and
//! renamed over `<path>` only after the previous `<path>` has been
//! rotated to `<path>.prev`. A reader that finds `<path>` torn or
//! corrupt ([`Checkpoint::read_with_fallback`]) falls back to
//! `<path>.prev` — the last good snapshot — and only then gives up.
//! Version or spec mismatches are *hard* errors with no fallback: a
//! stale-but-valid snapshot from the wrong run must never silently
//! seed a resume.

use ecocloud_metrics::TimeSeries;
use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::iter;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A kind of sealed file: the magic it starts with and the one layout
/// version of it this build reads and writes.
#[derive(Debug, Clone, Copy)]
pub struct FileKind {
    /// Leading bytes that identify the kind.
    pub magic: &'static [u8],
    /// Layout version, bumped on any change to the kind's sections.
    pub version: u16,
    /// What the kind is called in errors.
    pub name: &'static str,
}

/// Bumped whenever the byte layout of any section changes.
const FORMAT_VERSION: u16 = 6;

/// Checkpoints. The magic's trailing `1` doubles as a human-visible
/// layout generation; [`FORMAT_VERSION`] is the machine-checked one.
const CHECKPOINT: FileKind = FileKind {
    magic: b"ECOCKPT1",
    version: FORMAT_VERSION,
    name: "checkpoint",
};

/// Version of the code that wrote a snapshot. Restoring across crate
/// versions is refused: state layout is an internal detail and the
/// byte-identical guarantee only holds within one build lineage.
pub const CRATE_VERSION: &str = match option_env!("CARGO_PKG_VERSION") {
    Some(v) => v,
    None => "0.1.0",
};

/// Why a sealed file (a snapshot, a sweep artifact, a trace file)
/// could not be written, read, or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Filesystem error; carries the path and the OS error text.
    Io(String),
    /// The file is shorter than its recorded length (torn write).
    Truncated(String),
    /// The file does not start with its kind's magic.
    BadMagic(String),
    /// The checksum trailer does not match the content.
    BadChecksum(String),
    /// The file was written under a different byte layout.
    FormatVersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The snapshot was written by a different crate version.
    CrateVersionMismatch {
        /// Version recorded in the snapshot.
        found: String,
        /// Version of this build.
        expected: String,
    },
    /// The snapshot belongs to a different run (spec string differs).
    SpecMismatch {
        /// Spec recorded in the snapshot.
        found: String,
        /// Spec of the run attempting to resume.
        expected: String,
    },
    /// The envelope was intact (magic, length, checksum) but a section
    /// failed to decode — a layout bug, not a torn write.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "I/O error: {msg}"),
            Self::Truncated(msg) => write!(f, "truncated: {msg}"),
            Self::BadMagic(msg) => write!(f, "bad magic: {msg}"),
            Self::BadChecksum(msg) => write!(f, "checksum mismatch: {msg}"),
            Self::FormatVersionMismatch { found, expected } => write!(
                f,
                "format version {found} is not the supported version {expected}"
            ),
            Self::CrateVersionMismatch { found, expected } => write!(
                f,
                "checkpoint was written by crate version {found}, this build is {expected}"
            ),
            Self::SpecMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different run:\n  snapshot spec: {found}\n  resume spec:   {expected}"
            ),
            Self::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl CheckpointError {
    /// True for errors a fallback snapshot can repair (torn or rotted
    /// files). Version and spec mismatches are not recoverable: an
    /// older snapshot of the wrong run is still the wrong run.
    fn recoverable(&self) -> bool {
        matches!(
            self,
            Self::Io(_) | Self::Truncated(_) | Self::BadMagic(_) | Self::BadChecksum(_)
        )
    }
}

/// FNV-1a's 64-bit offset basis and prime, the constants the snapshot
/// checksum starts from and multiplies by.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One step of the checksum: xor the word in, multiply by the prime,
/// fold the high half down, multiply again. For a fixed word the step
/// is a bijection of the state, and for a fixed state an injection of
/// the word, so a changed word always changes the state it leaves.
/// The fold and the second multiply are what make that change depend
/// on carries: a single multiply carries a difference only upward, and
/// a difference in bit 63 survives it unchanged, so without them
/// sign-bit flips in two words would cancel whatever the data.
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(FNV_PRIME);
    (h ^ (h >> 32)).wrapping_mul(FNV_PRIME)
}

/// The container checksum. Little-endian 64-bit words go alternately
/// to two lanes that start from FNV-1a's offset basis and its
/// complement (two independent multiply chains run twice as fast as
/// one), the second lane is mixed into the first, then any odd word,
/// the 1–7 tail bytes zero-padded to a word, and the length. A change
/// confined to one word or to the tail always changes the sum (every
/// later step is a bijection of the state); changes in several words
/// can cancel only through carry-dependent differences, never for
/// every content.
fn checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (pairs, odd) = words.as_chunks::<2>();
    let (mut a, mut b) = (FNV_BASIS, !FNV_BASIS);
    for &[x, y] in pairs {
        a = mix(a, u64::from_le_bytes(x));
        b = mix(b, u64::from_le_bytes(y));
    }
    let mut h = mix(a, b);
    for &w in odd {
        h = mix(h, u64::from_le_bytes(w));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    mix(h, bytes.len() as u64)
}

// ---------------------------------------------------------------- codec

/// Byte encoder: fixed-width little-endian scalars, floats as raw bits.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub(crate) fn bool(&mut self, x: bool) {
        self.buf.push(x as u8);
    }

    pub(crate) fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// A `usize`, as a `u64`.
    pub fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// An `f64`, as its bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// An `f32`, as its bits.
    pub fn f32(&mut self, x: f32) {
        self.u32(x.to_bits());
    }

    /// A string: its `u32` byte length, then its UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.bool(true);
                self.f64(v);
            }
            None => self.bool(false),
        }
    }

    pub(crate) fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    /// A `u64` list: its `usize` count, then the values.
    pub fn u64s(&mut self, xs: &[u64]) {
        self.usize(xs.len());
        for &x in xs {
            self.u64(x);
        }
    }

    pub(crate) fn u32s(&mut self, xs: &[u32]) {
        self.usize(xs.len());
        for &x in xs {
            self.u32(x);
        }
    }

    /// A time series: its name, its timestamps and its values.
    pub fn series(&mut self, s: &TimeSeries) {
        self.str(s.name());
        self.f64s(s.times_secs());
        self.f64s(s.values());
    }
}

/// Sizes of the scenario a snapshot is restored into. Every server
/// and VM id a section carries must index one of these, and the
/// decoders check each one as they read it ([`Dec::id`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdBounds {
    /// Servers in the fleet.
    pub servers: usize,
    /// VMs in the restored VM table.
    pub vms: usize,
}

/// Byte decoder matching [`Enc`]. Every read is bounds-checked; running
/// past the end of a section yields [`CheckpointError::Corrupt`] (the
/// envelope's length + checksum have already ruled out torn files).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Section name, for error context.
    what: &'a str,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'a str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(self.ended_early(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        match self.buf[self.pos..].first_chunk::<N>() {
            Some(&bytes) => {
                self.pos += N;
                Ok(bytes)
            }
            None => Err(self.ended_early(N)),
        }
    }

    #[cold]
    fn ended_early(&self, n: usize) -> CheckpointError {
        CheckpointError::Corrupt(format!(
            "section '{}' ended early (wanted {} bytes at offset {}, have {})",
            self.what,
            n,
            self.pos,
            self.buf.len() - self.pos
        ))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format_args!("invalid bool byte {other}"))),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `usize` written as a `u64`; one past the address space is
    /// [`CheckpointError::Corrupt`].
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let x = self.u64()?;
        usize::try_from(x)
            .map_err(|_| self.corrupt(format_args!("length {x} exceeds the address space")))
    }

    /// An `f64`, from its bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// A string written by [`Enc::str`].
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(format_args!("non-UTF-8 string")))
    }

    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.usize()?;
        self.f64s_of(n)
    }

    /// `n` `f64`s written without their count, which the scenario
    /// fixes (one per server, say).
    pub(crate) fn f64s_of(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let words = self.chunks::<8>(n)?;
        Ok(words
            .iter()
            .map(|&b| f64::from_bits(u64::from_le_bytes(b)))
            .collect())
    }

    /// A `u64` list written by [`Enc::u64s`].
    pub fn u64s(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let n = self.usize()?;
        Ok(self
            .chunks::<8>(n)?
            .iter()
            .map(|&b| u64::from_le_bytes(b))
            .collect())
    }

    /// A `u32` list: its `usize` count, then the values.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.usize()?;
        self.u32s_of(n)
    }

    /// `n` `u32`s written without their count ([`f64s_of`](Self::f64s_of)).
    pub(crate) fn u32s_of(&mut self, n: usize) -> Result<Vec<u32>, CheckpointError> {
        Ok(self
            .chunks::<4>(n)?
            .iter()
            .map(|&b| u32::from_le_bytes(b))
            .collect())
    }

    /// A time series written by [`Enc::series`]. Its timestamps must be
    /// in order and not NaN, as [`TimeSeries::push`] requires.
    pub fn series(&mut self) -> Result<TimeSeries, CheckpointError> {
        let name = self.str()?;
        let (t, v) = (self.f64s()?, self.f64s()?);
        TimeSeries::from_parts(name, t, v).map_err(|why| self.corrupt(format_args!("{why}")))
    }

    /// A list written as its `usize` count followed by the items, each
    /// read by `item` from at least `min_bytes` bytes. The count comes
    /// from the section, so it is checked against the bytes left before
    /// it sizes the list.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.usize()?;
        self.check_remaining(n, min_bytes.max(1))?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// The next `n` fixed-width scalars as `N`-byte chunks, for the
    /// list readers. `n` comes from the section, so it is checked
    /// against the bytes left before anything is sized by it.
    fn chunks<const N: usize>(&mut self, n: usize) -> Result<&'a [[u8; N]], CheckpointError> {
        self.check_remaining(n, N)?;
        Ok(self.take(n * N)?.as_chunks::<N>().0)
    }

    /// Checks that index `i`, read from this section, names one of
    /// `n` items, so that a hostile snapshot is refused here, naming
    /// the section and the index, instead of panicking on an index
    /// later in the run.
    pub(crate) fn in_range(
        &self,
        what: &str,
        i: usize,
        n: usize,
    ) -> Result<usize, CheckpointError> {
        if i < n {
            Ok(i)
        } else {
            Err(self.corrupt(format_args!("{what} {i} is out of range (0..{n})")))
        }
    }

    /// A [`CheckpointError::Corrupt`] that names this section.
    pub fn corrupt(&self, why: fmt::Arguments<'_>) -> CheckpointError {
        CheckpointError::Corrupt(format!("section '{}': {why}", self.what))
    }

    /// Reads a `u32` id and checks it names one of `n` items
    /// ([`in_range`](Self::in_range)).
    pub(crate) fn id(&mut self, what: &str, n: usize) -> Result<u32, CheckpointError> {
        let id = self.u32()?;
        self.in_range(what, id as usize, n)?;
        Ok(id)
    }

    /// Reads a `u32` list ([`u32s`](Self::u32s)) whose every id must
    /// name one of `n` items.
    pub(crate) fn ids(&mut self, what: &str, n: usize) -> Result<Vec<u32>, CheckpointError> {
        let n_ids = self.usize()?;
        let ids = self.chunks::<4>(n_ids)?;
        ids.iter()
            .map(|&b| {
                let id = u32::from_le_bytes(b);
                self.in_range(what, id as usize, n).map(|_| id)
            })
            .collect()
    }

    /// Guards `Vec::with_capacity`-style allocations against absurd
    /// lengths decoded from a corrupt section.
    pub(crate) fn check_remaining(&self, n: usize, elem: usize) -> Result<(), CheckpointError> {
        let have = self.buf.len() - self.pos;
        if n.checked_mul(elem).is_none_or(|need| need > have) {
            return Err(self.corrupt(format_args!(
                "claims {n} elements of at least {elem} B but only {have} B remain"
            )));
        }
        Ok(())
    }

    /// Asserts the section was consumed exactly — trailing bytes mean
    /// the writer and reader disagree about the layout.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "section '{}' has {} undecoded trailing bytes",
                self.what,
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------- container

/// The named sections of one sealed file.
///
/// Each section is a name and a byte range of one buffer: sections
/// encoded in this process own it, a file decoded by
/// [`from_bytes`](Self::from_bytes) is read in place, and one loaded
/// by [`read`](Self::read) owns the bytes it read.
#[derive(Clone, Default)]
pub struct Sealed<'a> {
    buf: Cow<'a, [u8]>,
    table: Vec<(String, Range<usize>)>,
}

impl Sealed<'static> {
    /// Reads and opens the sealed file of `kind` at `path`.
    pub fn read(path: &Path, kind: &FileKind) -> Result<Self, CheckpointError> {
        let bytes = fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        let table = open(&bytes, kind, &path.display().to_string())?;
        Ok(Sealed {
            buf: Cow::Owned(bytes),
            table,
        })
    }
}

impl<'a> Sealed<'a> {
    /// Opens the sealed file of `kind` in `bytes` (checking its
    /// magic, version, length and checksum) and reads its sections in
    /// place. `origin` names the source (a path) in errors.
    pub fn from_bytes(
        bytes: &'a [u8],
        kind: &FileKind,
        origin: &str,
    ) -> Result<Self, CheckpointError> {
        Ok(Sealed {
            table: open(bytes, kind, origin)?,
            buf: Cow::Borrowed(bytes),
        })
    }

    /// Seals the sections, in written order, as a file of `kind`.
    pub fn to_bytes(&self, kind: &FileKind) -> Vec<u8> {
        seal(kind, self.sections())
    }

    /// Appends a section named `name` whose payload `encode` writes
    /// straight into the buffer.
    pub fn encode_section(&mut self, name: &str, encode: impl FnOnce(&mut Enc)) {
        debug_assert!(
            !self.table.iter().any(|(n, _)| n == name),
            "duplicate section '{name}'"
        );
        let mut e = Enc {
            buf: std::mem::take(self.buf.to_mut()),
        };
        let start = e.buf.len();
        encode(&mut e);
        self.table.push((name.to_string(), start..e.buf.len()));
        self.buf = Cow::Owned(e.buf);
    }

    /// Appends a section whose payload is `bytes`.
    pub fn push_section(&mut self, name: &str, bytes: &[u8]) {
        self.encode_section(name, |e| e.buf.extend_from_slice(bytes));
    }

    /// A decoder over the section called `name`, naming it in errors.
    pub fn decoder(&self, name: &str) -> Result<Dec<'_>, CheckpointError> {
        let (name, range) = self
            .table
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| CheckpointError::Corrupt(format!("missing section '{name}'")))?;
        Ok(Dec::new(&self.buf[range.clone()], name))
    }

    /// `(name, payload)` pairs in written order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> + '_ {
        self.table
            .iter()
            .map(|(name, range)| (name.as_str(), &self.buf[range.clone()]))
    }
}

/// Two containers are equal when their sections, in order, are —
/// wherever each one's bytes live.
impl PartialEq for Sealed<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.sections().eq(other.sections())
    }
}

/// Each section's name and length; payloads run to megabytes.
impl fmt::Debug for Sealed<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.sections().map(|(name, bytes)| (name, bytes.len())))
            .finish()
    }
}

/// The sealed file of `kind` holding `sections` in order.
fn seal<'s>(kind: &FileKind, sections: impl Iterator<Item = (&'s str, &'s [u8])>) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(kind.magic);
    e.buf.extend_from_slice(&kind.version.to_le_bytes());
    let total_at = e.buf.len();
    e.u64(0); // total length and section count backpatched below
    e.u32(0);
    let mut count = 0u32;
    for (name, bytes) in sections {
        e.str(name);
        e.u32(bytes.len() as u32);
        e.buf.extend_from_slice(bytes);
        count += 1;
    }
    let total = (e.buf.len() + 8) as u64;
    e.buf[total_at..total_at + 8].copy_from_slice(&total.to_le_bytes());
    e.buf[total_at + 8..total_at + 12].copy_from_slice(&count.to_le_bytes());
    let sum = checksum(&e.buf);
    e.u64(sum);
    e.into_bytes()
}

/// Checks the envelope of the sealed file of `kind` in `bytes` —
/// magic, version, recorded length, checksum — and returns its section
/// table: each section's name and payload range in `bytes`.
fn open(
    bytes: &[u8],
    kind: &FileKind,
    origin: &str,
) -> Result<Vec<(String, Range<usize>)>, CheckpointError> {
    let m = kind.magic.len();
    let short = |what: &str| {
        CheckpointError::Truncated(format!(
            "{origin}: {} bytes is shorter than the {what}",
            bytes.len()
        ))
    };
    if bytes.get(..m).ok_or_else(|| short("magic"))? != kind.magic {
        return Err(CheckpointError::BadMagic(format!(
            "{origin} is not a {}",
            kind.name
        )));
    }
    // Magic, version and length, then the trailer.
    let header = m + 2 + 8;
    if bytes.len() < header + 8 {
        return Err(short(&format!("{} header", kind.name)));
    }
    let word = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let version = u16::from_le_bytes([bytes[m], bytes[m + 1]]);
    if version != kind.version {
        return Err(CheckpointError::FormatVersionMismatch {
            found: version.into(),
            expected: kind.version.into(),
        });
    }
    let total = word(m + 2);
    if total != bytes.len() as u64 {
        return Err(CheckpointError::Truncated(format!(
            "{origin}: file is {} bytes but records {total}",
            bytes.len()
        )));
    }
    let body = bytes.len() - 8;
    if checksum(&bytes[..body]) != word(body) {
        return Err(CheckpointError::BadChecksum(origin.to_string()));
    }
    // The section table decodes with the shared codec; a payload's
    // range in `bytes` is `header` past its range in `d`.
    let mut d = Dec::new(&bytes[header..body], "header");
    let n_sections = d.u32()? as usize;
    let mut table = Vec::with_capacity(n_sections.min(64));
    for _ in 0..n_sections {
        let name = d.str()?;
        let len = d.u32()? as usize;
        d.take(len)?;
        table.push((name, header + d.pos - len..header + d.pos));
    }
    d.finish()?;
    Ok(table)
}

// ---------------------------------------------------------- checkpoint

/// A complete snapshot: its identity plus named state sections.
///
/// Sections are opaque byte strings produced by the per-module
/// encoders; naming them lets the restore oracle report *which* part
/// of the state diverged instead of a bare "bytes differ". The
/// identity is sealed as the first section, `identity`, and is not one
/// of [`sections`](Self::sections).
#[derive(Clone, PartialEq)]
pub struct Checkpoint<'a> {
    /// Canonical run identity (e.g. `RunSpec::canonical()`); resuming
    /// under a different spec is refused.
    pub spec: String,
    /// Crate version that wrote the snapshot.
    pub crate_version: String,
    /// Monotonic sequence number within a run; later snapshots carry
    /// larger numbers, so a stale file can never masquerade as newer.
    pub seq: u64,
    /// Simulated time at capture, seconds.
    pub sim_time_secs: f64,
    state: Sealed<'a>,
}

impl Checkpoint<'static> {
    /// Creates an empty snapshot envelope stamped with this build's
    /// crate version.
    pub fn new(spec: impl Into<String>, seq: u64, sim_time_secs: f64) -> Self {
        Self {
            spec: spec.into(),
            crate_version: CRATE_VERSION.to_string(),
            seq,
            sim_time_secs,
            state: Sealed::default(),
        }
    }

    /// Reads and parses the snapshot at `path`; the result owns the
    /// file's bytes and reads its sections in place.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        Self::with_identity(Sealed::read(path, &CHECKPOINT)?)
    }

    /// Reads `path`, falling back to `<path>.prev` when `path` is
    /// missing, torn, or corrupt. Returns the snapshot and the path it
    /// was actually loaded from; `skipped` (when `Some`) is the error
    /// that disqualified the primary. Version/spec problems do **not**
    /// fall back — see `CheckpointError::recoverable`.
    pub fn read_with_fallback(
        path: &Path,
    ) -> Result<(Self, PathBuf, Option<CheckpointError>), CheckpointError> {
        match Self::read(path) {
            Ok(ckpt) => Ok((ckpt, path.to_path_buf(), None)),
            Err(primary) if primary.recoverable() => {
                let prev = path_with_suffix(path, ".prev");
                match Self::read(&prev) {
                    Ok(ckpt) => Ok((ckpt, prev, Some(primary))),
                    // The primary's error names the file the caller
                    // asked for; the fallback's failure is secondary.
                    Err(_) => Err(primary),
                }
            }
            Err(hard) => Err(hard),
        }
    }
}

impl<'a> Checkpoint<'a> {
    /// Appends a section named `name` whose payload `encode` writes
    /// straight into the snapshot's buffer.
    pub(crate) fn encode_section(&mut self, name: &str, encode: impl FnOnce(&mut Enc)) {
        self.state.encode_section(name, encode);
    }

    /// Appends a named state section.
    #[cfg(test)]
    pub(crate) fn push_section(&mut self, name: &str, bytes: &[u8]) {
        self.state.push_section(name, bytes);
    }

    /// Looks up a section's payload by name.
    #[cfg(test)]
    pub(crate) fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections().find(|&(n, _)| n == name).map(|(_, b)| b)
    }

    /// A decoder over the section called `name`.
    pub(crate) fn decoder(&self, name: &str) -> Result<Dec<'_>, CheckpointError> {
        self.state.decoder(name)
    }

    /// `(name, payload)` pairs of the state sections in written order —
    /// the restore oracle diffs these.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> + '_ {
        self.state.sections()
    }

    /// Name of the first section whose payload differs from `other`'s
    /// (or that exists on only one side); `None` when identical.
    pub fn first_divergent_section(&self, other: &Checkpoint<'_>) -> Option<String> {
        let (mut ours, mut theirs) = (self.sections(), other.sections());
        loop {
            match (ours.next(), theirs.next()) {
                (Some(a), Some(b)) if a == b => {}
                (Some((name, _)), _) | (None, Some((name, _))) => return Some(name.to_string()),
                (None, None) => return None,
            }
        }
    }

    /// Hard compatibility gate: crate version and run spec must match
    /// exactly. Called by `Simulation::restore_from`; also useful for
    /// pre-flight checks before building the (expensive) scenario.
    pub fn verify_compat(&self, spec: &str) -> Result<(), CheckpointError> {
        if self.crate_version != CRATE_VERSION {
            return Err(CheckpointError::CrateVersionMismatch {
                found: self.crate_version.clone(),
                expected: CRATE_VERSION.to_string(),
            });
        }
        if self.spec != spec {
            return Err(CheckpointError::SpecMismatch {
                found: self.spec.clone(),
                expected: spec.to_string(),
            });
        }
        Ok(())
    }

    /// Serializes the snapshot to its on-disk byte form: the sealed
    /// `identity` section, then the state sections.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut id = Enc::default();
        id.str(&self.crate_version);
        id.str(&self.spec);
        id.u64(self.seq);
        id.f64(self.sim_time_secs);
        seal(
            &CHECKPOINT,
            iter::once(("identity", id.buf.as_slice())).chain(self.sections()),
        )
    }

    /// Parses the on-disk byte form in place: the sections are ranges
    /// of `bytes`, not copies. `origin` names the source (a path) in
    /// errors.
    pub fn from_bytes(bytes: &'a [u8], origin: &str) -> Result<Self, CheckpointError> {
        Self::with_identity(Sealed::from_bytes(bytes, &CHECKPOINT, origin)?)
    }

    /// The snapshot whose first section in `state` is its identity.
    fn with_identity(mut state: Sealed<'a>) -> Result<Self, CheckpointError> {
        let mut d = match state.table.first() {
            Some((name, range)) if name == "identity" => Dec::new(&state.buf[range.clone()], name),
            _ => {
                return Err(CheckpointError::Corrupt(
                    "the first section is not 'identity'".to_string(),
                ))
            }
        };
        let (crate_version, spec, seq, sim_time_secs) = (d.str()?, d.str()?, d.u64()?, d.f64()?);
        d.finish()?;
        state.table.remove(0);
        Ok(Checkpoint {
            spec,
            crate_version,
            seq,
            sim_time_secs,
            state,
        })
    }

    /// Writes the snapshot crash-safely to `path`:
    ///
    /// 1. serialize to `<path>.tmp` and fsync the file,
    /// 2. rotate any existing `<path>` to `<path>.prev` (the fallback
    ///    [`read_with_fallback`](Checkpoint::read_with_fallback) uses),
    /// 3. atomically rename `<path>.tmp` → `<path>`,
    /// 4. best-effort fsync of the parent directory so the renames
    ///    survive power loss.
    ///
    /// A crash at any point leaves either the old snapshot at `path`,
    /// or the old one at `<path>.prev` and the new one at `path` —
    /// never a torn file at a path a reader trusts.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        let tmp = path_with_suffix(path, ".tmp");
        let prev = path_with_suffix(path, ".prev");
        let io_err = |what: &str, p: &Path, e: std::io::Error| {
            CheckpointError::Io(format!("{what} {}: {e}", p.display()))
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
            }
        }
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        f.write_all(&bytes).map_err(|e| io_err("write", &tmp, e))?;
        f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
        drop(f);
        if path.exists() {
            fs::rename(path, &prev).map_err(|e| io_err("rotate", path, e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, e))?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                // Durability of the renames themselves; failure here
                // (e.g. an unsyncable virtual fs) does not lose data
                // already fsynced to the file.
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    }
}

/// The identity and each section's name and length; payloads run to
/// megabytes.
impl fmt::Debug for Checkpoint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint")
            .field("spec", &self.spec)
            .field("crate_version", &self.crate_version)
            .field("seq", &self.seq)
            .field("sim_time_secs", &self.sim_time_secs)
            .field("sections", &self.state)
            .finish()
    }
}

/// `<path><suffix>` with the suffix appended to the full file name
/// (`run.ckpt` → `run.ckpt.prev`), keeping the family adjacent in
/// directory listings.
fn path_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint<'static> {
        let mut c = Checkpoint::new("spec/1;seed=42", 3, 1234.5);
        c.push_section("alpha", &[1, 2, 3]);
        c.push_section("beta", &[]);
        c.push_section("gamma", &(0..=255u8).collect::<Vec<_>>());
        c
    }

    /// `bytes` with its version field set to `version` and the
    /// checksum recomputed, so the version gate is what fires.
    fn with_version(mut bytes: Vec<u8>, version: u16) -> Vec<u8> {
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        let sum = checksum(&bytes[..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn bytes_roundtrip() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes, "mem").expect("roundtrip");
        assert_eq!(back, c);
        assert_eq!(back.crate_version, CRATE_VERSION);
        assert_eq!(back.first_divergent_section(&c), None);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut], "mem")
                .expect_err("truncated file must not parse");
            assert!(
                err.recoverable(),
                "truncation at {cut} produced unrecoverable {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = sample().to_bytes();
        // Flipping any single bit either breaks the checksum, the
        // magic, the recorded length, or (for the version field) the
        // version gate — never yields a silently different snapshot.
        let original = Checkpoint::from_bytes(&bytes, "mem").expect("parses");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match Checkpoint::from_bytes(&bad, "mem") {
                Err(_) => {}
                Ok(parsed) => panic!(
                    "flip at byte {i} parsed as {:?} vs {:?}",
                    parsed.seq, original.seq
                ),
            }
        }
    }

    #[test]
    fn format_version_gate() {
        let bytes = with_version(sample().to_bytes(), FORMAT_VERSION + 1);
        let err = Checkpoint::from_bytes(&bytes, "mem").expect_err("version gate");
        assert_eq!(
            err,
            CheckpointError::FormatVersionMismatch {
                found: u32::from(FORMAT_VERSION) + 1,
                expected: u32::from(FORMAT_VERSION)
            }
        );
        assert!(!err.recoverable(), "version mismatch must not fall back");
    }

    /// Format 2 added the `traces` section (the engine's trace
    /// cursors), so a format-1 snapshot lacks it; format 3 changed the
    /// checksum to a word-wise sum, so a format-2 trailer does not
    /// verify; format 4 replaced the engine's per-server "tick queued"
    /// flags with the `monitor` section's chain states and re-keyed the
    /// queue for re-armed ticks; format 5 stopped storing what the
    /// decoders rebuild (queued spawns, the alive set, VM hosts,
    /// reservation counts, scheduled chains, clock copies); format 6
    /// moved the identity from the envelope into the `identity`
    /// section and the version from a `u32` to a `u16`. All five must
    /// be refused by the version gate, not decoded — including a
    /// header laid out as formats 1–5 wrote it, with a `u32` version.
    #[test]
    fn format_1_snapshots_are_refused() {
        assert_eq!(FORMAT_VERSION, 6);
        for found in 1..=5u16 {
            let refused = Err(CheckpointError::FormatVersionMismatch {
                found: found.into(),
                expected: 6,
            });
            let bytes = with_version(sample().to_bytes(), found);
            assert_eq!(Checkpoint::from_bytes(&bytes, "mem"), refused);
            let mut old = sample().to_bytes();
            old[8..12].copy_from_slice(&u32::from(found).to_le_bytes());
            assert_eq!(Checkpoint::from_bytes(&old, "mem"), refused);
        }
    }

    /// A checkpoint's identity is its first section; a sealed file
    /// without one is not a checkpoint.
    #[test]
    fn identity_must_be_the_first_section() {
        let mut state = Sealed::default();
        state.push_section("alpha", &[1, 2, 3]);
        let bytes = state.to_bytes(&CHECKPOINT);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes, "mem"),
            Err(CheckpointError::Corrupt(_))
        ));
        let other = FileKind {
            magic: b"ECOT",
            version: FORMAT_VERSION,
            name: "trace file",
        };
        assert!(matches!(
            Checkpoint::from_bytes(&state.to_bytes(&other), "mem"),
            Err(CheckpointError::BadMagic(_))
        ));
    }

    /// The sum's layout: two lanes of words, the lane merge, the odd
    /// word, the zero-padded tail and the length, in that order.
    #[test]
    fn checksum_layout() {
        let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("one word"));
        let data = b"abcdefghijklmnopqrstuvwxyz";
        let a = mix(FNV_BASIS, le(&data[0..8]));
        let b = mix(!FNV_BASIS, le(&data[8..16]));
        let h = mix(mix(a, b), le(&data[16..24]));
        let h = mix(h, le(b"yz\0\0\0\0\0\0"));
        assert_eq!(checksum(data), mix(h, 26));
        assert_eq!(checksum(b""), mix(mix(FNV_BASIS, !FNV_BASIS), 0));
        // Trailing zeros are covered by the length, not the padding.
        assert_ne!(checksum(b"yz"), checksum(b"yz\0"));
    }

    /// A flip of bit 63 passes a multiply unchanged. With one multiply
    /// per word, flips of bit 63 in two words of a lane cancel for any
    /// content; with the fold but one multiply, a flip of bit 63 in one
    /// word cancels against bits 63 and 31 of the lane's next word.
    /// Neither may cancel here, nor may changes to many bytes at
    /// offsets 7 mod 8 (the high byte of each word).
    #[test]
    fn high_bit_changes_in_several_words_are_detected() {
        let body: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let sum = checksum(&body);
        let changed = |edits: &[(usize, u8)]| {
            let mut bad = body.clone();
            for &(at, bits) in edits {
                bad[at] ^= bits;
            }
            checksum(&bad)
        };
        for (i, j) in [(7, 15), (7, 23), (15, 23), (7, 4095), (2047, 2055)] {
            assert_ne!(
                changed(&[(i, 0x80), (j, 0x80)]),
                sum,
                "sign bits of bytes {i} and {j}"
            );
        }
        // Bit 63 of word 0, bits 63 and 31 of word 2 (the same lane).
        assert_ne!(changed(&[(7, 0x80), (23, 0x80), (19, 0x80)]), sum);
        for stride in [1, 2, 3, 8] {
            let edits: Vec<(usize, u8)> = (7..body.len())
                .step_by(8 * stride)
                .map(|at| (at, 0xa5))
                .collect();
            assert_ne!(changed(&edits), sum, "high bytes every {stride} words");
        }
    }

    /// A decoded snapshot reads its sections in place: every payload is
    /// a slice of the caller's bytes.
    #[test]
    fn from_bytes_reads_sections_in_place() {
        let bytes = sample().to_bytes();
        let c = Checkpoint::from_bytes(&bytes, "mem").expect("parses");
        let whole = bytes.as_ptr_range();
        for (name, payload) in c.sections() {
            let inside = payload.as_ptr_range();
            assert!(
                whole.start <= inside.start && inside.end <= whole.end,
                "section {name} was copied"
            );
        }
        assert_eq!(c.section("gamma").expect("gamma")[255], 255);
    }

    #[test]
    fn compat_gate_names_both_specs() {
        let c = sample();
        c.verify_compat("spec/1;seed=42").expect("same spec passes");
        let err = c.verify_compat("spec/1;seed=43").expect_err("spec gate");
        let msg = err.to_string();
        assert!(msg.contains("seed=42") && msg.contains("seed=43"), "{msg}");
    }

    #[test]
    fn atomic_write_rotates_prev_and_fallback_reads_it() {
        let dir = std::env::temp_dir().join(format!("dcsim-ckpt-test-{}", std::process::id()));
        let path = dir.join("run.ckpt");
        let mut c1 = sample();
        c1.seq = 1;
        c1.write_atomic(&path).expect("write 1");
        let mut c2 = sample();
        c2.seq = 2;
        c2.write_atomic(&path).expect("write 2");

        let (best, from, skipped) = Checkpoint::read_with_fallback(&path).expect("read");
        assert_eq!(best.seq, 2);
        assert_eq!(from, path);
        assert!(skipped.is_none());

        // Tear the primary: the fallback must serve seq 1 and report
        // what was wrong with the primary.
        let bytes = fs::read(&path).expect("read back");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear");
        let (older, from, skipped) = Checkpoint::read_with_fallback(&path).expect("fallback");
        assert_eq!(older.seq, 1);
        assert!(from.to_string_lossy().ends_with(".prev"));
        assert!(matches!(skipped, Some(CheckpointError::Truncated(_))));

        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn enc_dec_scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.f32(1.5);
        e.str("héllo");
        e.opt_f64(Some(2.25));
        e.opt_f64(None);
        e.f64s(&[1.0, 2.0]);
        e.u64s(&[3]);
        e.u32s(&[4, 5, 6]);
        let mut ts = TimeSeries::new("load");
        ts.push(1.0, 0.5);
        ts.push(1.0, -0.0);
        e.series(&ts);
        e.u64s(&[7, 8]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(d.u8().expect("u8"), 7);
        assert!(d.bool().expect("bool"));
        assert_eq!(d.u32().expect("u32"), 0xDEAD_BEEF);
        assert_eq!(d.u64().expect("u64"), u64::MAX);
        let z = d.f64().expect("f64");
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert!(d.f64().expect("nan").is_nan());
        assert_eq!(d.f32().expect("f32"), 1.5);
        assert_eq!(d.str().expect("str"), "héllo");
        assert_eq!(d.opt_f64().expect("some"), Some(2.25));
        assert_eq!(d.opt_f64().expect("none"), None);
        assert_eq!(d.f64s().expect("f64s"), vec![1.0, 2.0]);
        assert_eq!(d.u64s().expect("u64s"), vec![3]);
        assert_eq!(d.u32s().expect("u32s"), vec![4, 5, 6]);
        let back = d.series().expect("series");
        assert_eq!(back.name(), "load");
        assert_eq!(back.times_secs(), ts.times_secs());
        assert_eq!(back.values()[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.list(8, Dec::u64).expect("list"), vec![7, 8]);
        d.finish().expect("fully consumed");
    }

    #[test]
    fn dec_rejects_absurd_lengths() {
        let mut e = Enc::new();
        e.usize(usize::MAX / 2); // claims an impossible element count
        let bytes = e.into_bytes();
        fn refused<T>(r: Result<T, CheckpointError>) -> bool {
            matches!(r, Err(CheckpointError::Corrupt(_)))
        }
        assert!(refused(Dec::new(&bytes, "test").f64s()));
        assert!(refused(Dec::new(&bytes, "test").u32s()));
        assert!(refused(Dec::new(&bytes, "test").list(1, Dec::u8)));
    }

    /// A series that [`TimeSeries::push`] could not have built —
    /// timestamps out of order or NaN, or fewer values than
    /// timestamps — is refused, not handed on to panic later.
    #[test]
    fn dec_refuses_series_push_could_not_build() {
        for (t, v) in [
            (vec![2.0, 1.0], vec![0.0, 0.0]),
            (vec![f64::NAN], vec![0.0]),
            (vec![0.0, f64::NAN], vec![0.0, 0.0]),
            (vec![0.0, 1.0], vec![0.0]),
        ] {
            let mut e = Enc::new();
            e.str("s");
            e.f64s(&t);
            e.f64s(&v);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes, "test");
            assert!(
                matches!(d.series(), Err(CheckpointError::Corrupt(_))),
                "{t:?} {v:?}"
            );
        }
    }

    #[test]
    fn dec_reports_trailing_bytes() {
        let mut e = Enc::new();
        e.u32(1);
        e.u32(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        let _ = d.u32().expect("first");
        assert!(matches!(d.finish(), Err(CheckpointError::Corrupt(_))));
    }
}
