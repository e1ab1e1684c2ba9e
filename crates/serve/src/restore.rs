//! Resumable streaming restore: decompress a committed segment to a
//! file, leaving a durable `RST1` progress token every N output bytes
//! so a killed restore re-runs only the tail.
//!
//! The driver walks the payload's gzip members (one member for a plain
//! gzip payload, the chunk index's members for a `WPK1` container) and
//! steps each through the deflate crate's one member decoder
//! ([`gzip::Member`]), appending decompressed bytes to the output file;
//! it holds a `WPK1` container to every check the in-memory decoder
//! makes, so both restore paths refuse the same bytes. At every
//! `interval_bytes` of output it makes the progress durable in strict
//! order — output bytes, `fdatasync`, then the token via the same
//! tmp → write → fsync → rename protocol segments use — so the token
//! never references bytes the output file might not have. Killing the
//! restore at *any* byte leaves either no token (restart from zero) or
//! a token whose recorded prefix is intact on disk; resuming truncates
//! any torn tail past the token, re-verifies the prefix CRC, and
//! continues bit-identically.
//!
//! Token layout (`RST1`, all integers LE):
//!
//! ```text
//! "RST1" | ver u8 | gen u64 | rank u32 | payload_len u64 |
//! payload_crc u32 | member_at u32 | member_count u32 |
//! prefix_len u64 | prefix_crc u32 | out_len u64 | out_crc u32 |
//! ick_len u32 | ick bytes (ICK1 blob, empty at a member boundary) |
//! frame crc32 over everything before it
//! ```

use crate::{Result, ServeError};
use ckpt_deflate::crc32::{crc32_combine, crc32_extend};
use ckpt_deflate::frame::{self, Reader, Writer, RST1};
use ckpt_deflate::resume::ResumableInflate;
use ckpt_deflate::chunked::{self, MemberRange};
use ckpt_deflate::{gzip, DeflateError};
use ckpt_store::{FailPoint, RankIndex, Snapshot, Staged, Staging, StoreError};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Fixed token size before the variable ICK1 blob and the frame CRC.
const TOKEN_FIXED: usize = 4 + 1 + 8 + 4 + 8 + 4 + 4 + 4 + 8 + 4 + 8 + 4 + 4;

/// Tuning for one restore run.
#[derive(Debug, Clone)]
pub struct RestoreOptions {
    /// Output bytes between durable progress tokens. Smaller means
    /// less work re-done after a kill, at the cost of more fsyncs.
    pub interval_bytes: u64,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions { interval_bytes: 8 << 20 }
    }
}

/// What one (possibly resumed) restore run produced.
#[derive(Debug, Clone)]
pub struct RestoreOutcome {
    pub gen: u64,
    pub rank: u32,
    /// Decompressed bytes in the output file.
    pub out_len: u64,
    /// CRC-32 of the whole output file.
    pub out_crc: u32,
    /// Progress tokens written during this run.
    pub checkpoints: u64,
    /// True when this run continued from a token.
    pub resumed: bool,
}

/// Durable progress record of a partial restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub gen: u64,
    pub rank: u32,
    /// Committed payload length of the segment being restored; pins
    /// the token to one exact payload.
    pub payload_len: u64,
    /// Committed payload CRC, same purpose.
    pub payload_crc: u32,
    /// Index of the member being inflated.
    pub member_at: u32,
    /// Total members in the payload.
    pub member_count: u32,
    /// Output bytes from members *before* `member_at`.
    pub prefix_len: u64,
    /// CRC-32 of those prefix bytes.
    pub prefix_crc: u32,
    /// Total durable output bytes (prefix + current member so far).
    pub out_len: u64,
    /// CRC-32 of all durable output bytes.
    pub out_crc: u32,
    /// `ICK1` engine state mid-member; empty exactly at a member
    /// boundary (the next member starts with a fresh engine).
    pub ick: Vec<u8>,
}

/// Serializes a token, framing CRC included.
pub fn encode_token(tok: &Token) -> Vec<u8> {
    let mut out = Writer::with_capacity(TOKEN_FIXED + tok.ick.len() + 4);
    out.put_bytes(&RST1.magic);
    out.put_u8(RST1.version);
    out.put_u64(tok.gen);
    out.put_u32(tok.rank);
    out.put_u64(tok.payload_len);
    out.put_u32(tok.payload_crc);
    out.put_u32(tok.member_at);
    out.put_u32(tok.member_count);
    out.put_u64(tok.prefix_len);
    out.put_u32(tok.prefix_crc);
    out.put_u64(tok.out_len);
    out.put_u32(tok.out_crc);
    out.put_count(tok.ick.len());
    out.put_bytes(&tok.ick);
    out.seal(RST1.max_body).expect("a token carries at most one ICK1 blob")
}

/// Parses and structurally validates a token. The frame CRC is checked
/// first, so every later diagnostic speaks about intact bytes; a token
/// from a torn write (which the atomic rename should prevent anyway)
/// dies here cleanly.
pub fn parse_token(bytes: &[u8]) -> Result<Token> {
    let mut c = Reader::new(frame::unseal(bytes, RST1.max_body)?);
    c.expect_magic(&RST1)?;
    c.expect_version(&RST1)?;
    let gen = c.get_u64()?;
    let rank = c.get_u32()?;
    let payload_len = c.get_u64()?;
    let payload_crc = c.get_u32()?;
    let member_at = c.get_u32()?;
    let member_count = c.get_u32()?;
    let prefix_len = c.get_u64()?;
    let prefix_crc = c.get_u32()?;
    let out_len = c.get_u64()?;
    let out_crc = c.get_u32()?;
    let ick_len = c.get_count(1)?;
    let ick = c.get_bytes(ick_len)?.to_vec();
    c.expect_end()?;

    if member_count == 0 || member_at >= member_count {
        return Err(ServeError::Proto(format!(
            "resume token points at member {member_at} of {member_count}"
        )));
    }
    if out_len < prefix_len {
        return Err(ServeError::Proto(
            "resume token's total output is shorter than its member prefix".into(),
        ));
    }
    if ick.is_empty() && (out_len != prefix_len || out_crc != prefix_crc) {
        return Err(ServeError::Proto(
            "boundary token with mid-member output accounting".into(),
        ));
    }
    Ok(Token {
        gen,
        rank,
        payload_len,
        payload_crc,
        member_at,
        member_count,
        prefix_len,
        prefix_crc,
        out_len,
        out_crc,
        ick,
    })
}

/// The payload's gzip members and, for a `WPK1` container, its header:
/// the geometry gives each member the length it must inflate to, the
/// header the CRC-32 of the whole output. A plain gzip payload is one
/// member whose `uncompressed_len` is unknown and unused.
#[derive(Debug)]
struct Plan {
    members: Vec<MemberRange>,
    container: Option<chunked::Header>,
}

/// Streams `gen`/`rank` from scratch into `out_path`, checkpointing
/// into `token_path`. Overwrites any previous output. On success the
/// token file is gone and the outcome carries the output length/CRC.
pub fn restore_streamed(
    snap: &Snapshot,
    gen: u64,
    rank: u32,
    out_path: &Path,
    token_path: &Path,
    opts: &RestoreOptions,
    fp: &FailPoint,
) -> Result<RestoreOutcome> {
    let ri = rank_of(snap, gen, rank)?;
    let plan = plan_members(snap, gen, rank, &ri)?;
    let out = fp.create_in_place(out_path)?;
    let state = DriveState {
        member_at: 0,
        prefix_len: 0,
        prefix_crc: 0,
        engine: None,
        checkpoints: 0,
        resumed: false,
    };
    drive(snap, gen, rank, &ri, &plan, out, state, token_path, opts, fp)
}

/// Continues a killed restore from its token. The token names the
/// generation and rank; the output file's durable prefix is CRC-
/// verified against the token (any torn tail past it is truncated)
/// before the stream continues. The final bytes are identical to an
/// uninterrupted [`restore_streamed`].
pub fn resume_restore(
    snap: &Snapshot,
    token_path: &Path,
    out_path: &Path,
    opts: &RestoreOptions,
    fp: &FailPoint,
) -> Result<RestoreOutcome> {
    let tok = parse_token(&frame::read_file_bounded(token_path, &RST1)?)?;
    let ri = rank_of(snap, tok.gen, tok.rank)?;
    if ri.payload_len != tok.payload_len || ri.crc != tok.payload_crc {
        return Err(ServeError::Proto(format!(
            "stale resume token: segment gen {} rank {} changed since the token was written",
            tok.gen, tok.rank
        )));
    }
    let plan = plan_members(snap, tok.gen, tok.rank, &ri)?;
    if u32::try_from(plan.members.len()).unwrap_or(u32::MAX) != tok.member_count {
        return Err(ServeError::Proto("stale resume token: member count changed".into()));
    }
    let member_at =
        usize::try_from(tok.member_at).map_err(|_| ServeError::Proto("member index".into()))?;

    let mut on_disk = fs::File::open(out_path)?;
    let disk_len = on_disk.metadata()?.len();
    if disk_len < tok.out_len {
        return Err(ServeError::Proto(format!(
            "output file holds {disk_len} bytes, the token promised {}",
            tok.out_len
        )));
    }
    let prefix_crc_on_disk = crc_of_prefix(&mut on_disk, tok.out_len)?;
    if prefix_crc_on_disk != tok.out_crc {
        return Err(ServeError::Proto(format!(
            "output prefix CRC {prefix_crc_on_disk:08x} != token's {:08x}",
            tok.out_crc
        )));
    }
    // Drop any torn tail the kill left past the last durable point.
    let out = fp.reopen_at(out_path, tok.out_len)?;

    let engine = if tok.ick.is_empty() {
        None
    } else {
        let engine = ResumableInflate::restore_from_checkpoint(&tok.ick)?;
        let expect_len = tok.prefix_len.checked_add(engine.output_len());
        let expect_crc = crc32_combine(tok.prefix_crc, engine.output_crc(), engine.output_len());
        if expect_len != Some(tok.out_len) || expect_crc != tok.out_crc {
            return Err(ServeError::Proto(
                "resume token's engine state disagrees with its output accounting".into(),
            ));
        }
        Some(engine)
    };
    let state = DriveState {
        member_at,
        prefix_len: tok.prefix_len,
        prefix_crc: tok.prefix_crc,
        engine,
        checkpoints: 0,
        resumed: true,
    };
    drive(snap, tok.gen, tok.rank, &ri, &plan, out, state, token_path, opts, fp)
}

/// Mid-run progress threaded through [`drive`].
struct DriveState {
    member_at: usize,
    prefix_len: u64,
    prefix_crc: u32,
    engine: Option<ResumableInflate>,
    checkpoints: u64,
    resumed: bool,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    snap: &Snapshot,
    gen: u64,
    rank: u32,
    ri: &RankIndex,
    plan: &Plan,
    mut out: Staged<'_>,
    mut st: DriveState,
    token_path: &Path,
    opts: &RestoreOptions,
    fp: &FailPoint,
) -> Result<RestoreOutcome> {
    let interval = usize::try_from(opts.interval_bytes.max(1)).unwrap_or(usize::MAX);
    // The token at a durable point: mid-member it carries the engine,
    // at a member boundary (`None`) the next member starts fresh.
    let token = |st: &DriveState, engine: Option<&ResumableInflate>| {
        let (len, crc) = engine.map_or((0, 0), |e| (e.output_len(), e.output_crc()));
        Token {
            gen,
            rank,
            payload_len: ri.payload_len,
            payload_crc: ri.crc,
            member_at: u32::try_from(st.member_at).unwrap_or(u32::MAX),
            member_count: u32::try_from(plan.members.len()).unwrap_or(u32::MAX),
            prefix_len: st.prefix_len,
            prefix_crc: st.prefix_crc,
            out_len: st.prefix_len.saturating_add(len),
            out_crc: crc32_combine(st.prefix_crc, crc, len),
            ick: engine.map_or_else(Vec::new, ResumableInflate::checkpoint),
        }
    };
    while let Some(mp) = plan.members.get(st.member_at) {
        // A range read is not CRC-checked by the store: the member's
        // own trailer, checked by the decoder against what it decoded,
        // is where corruption surfaces.
        let bytes = snap.read_segment_range(gen, rank, mp.offset, mp.compressed_len)?;
        let mut member = gzip::Member::new(&bytes, st.engine.take().unwrap_or_default())?;
        let size = loop {
            let mut produced = Vec::new();
            let ended = member.step(&mut produced, interval)?;
            // A container's member inflates to exactly its chunk of
            // the geometry; one that runs past it is refused before
            // the excess reaches the file.
            let (want, got) = (mp.uncompressed_len, member.engine().output_len());
            if plan.container.is_some() && (got > want || (ended.is_some() && got != want)) {
                return Err(DeflateError::SizeMismatch {
                    stored: u32::try_from(want).unwrap_or(u32::MAX),
                    computed: u32::try_from(got).unwrap_or(u32::MAX),
                }
                .into());
            }
            out.append(&produced)?;
            if let Some(size) = ended {
                break size;
            }
            // Durability order: output bytes first, then the token
            // referencing them. A kill between the two leaves a token
            // one interval behind — correct, just slower to resume.
            out.sync_data()?;
            write_token(token_path, &encode_token(&token(&st, Some(member.engine()))), fp)?;
            st.checkpoints += 1;
        };
        if bytes.len() != size {
            return Err(DeflateError::BadContainer("bytes after the end of a gzip member").into());
        }
        let engine = member.engine();
        st.prefix_crc = crc32_combine(st.prefix_crc, engine.output_crc(), engine.output_len());
        st.prefix_len = st.prefix_len.saturating_add(engine.output_len());
        st.member_at += 1;

        if st.member_at < plan.members.len() {
            // Boundary token: a kill while fetching the next member
            // resumes here instead of re-inflating this one.
            out.sync_data()?;
            write_token(token_path, &encode_token(&token(&st, None)), fp)?;
            st.checkpoints += 1;
        }
    }

    // The member CRCs combined are the CRC of the whole output: the
    // cross-check that ties the members to the container's header.
    if let Some(h) = plan.container.filter(|h| h.stored_crc != st.prefix_crc) {
        return Err(DeflateError::ChecksumMismatch { stored: h.stored_crc, computed: st.prefix_crc }
            .into());
    }
    let done = out.sync()?.in_place();
    // Completion: the token is obsolete the moment the full output is
    // durable. A crash right here leaves a valid token and a complete
    // file, and a resume just re-verifies the prefix and finds nothing
    // left to do.
    match fp.remove(token_path, &done)? {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(ServeError::Io(e)),
    }
    Ok(RestoreOutcome {
        gen,
        rank,
        out_len: st.prefix_len,
        out_crc: st.prefix_crc,
        checkpoints: st.checkpoints,
        resumed: st.resumed,
    })
}

/// The rank's committed metadata and member index.
fn rank_of(snap: &Snapshot, gen: u64, rank: u32) -> Result<RankIndex> {
    let ix = snap.segment_index(gen)?;
    ix.ranks
        .into_iter()
        .find(|r| r.rank == rank)
        .ok_or_else(|| ServeError::Store(StoreError::NotFound(format!("gen {gen} rank {rank}"))))
}

/// Maps the payload into gzip members: the chunk index for `WPK1`, one
/// whole-payload member for plain gzip, a clean refusal for anything
/// else (raw payloads have no deflate stream to resume inside — use
/// the store's plain restore).
fn plan_members(snap: &Snapshot, gen: u64, rank: u32, ri: &RankIndex) -> Result<Plan> {
    let head_len = ri.payload_len.min(chunked::HEADER_BYTES as u64);
    let head = snap.read_segment_range(gen, rank, 0, head_len)?;
    if chunked::is_chunked(&head) {
        let container = Some(chunked::parse_header(&head)?);
        return Ok(Plan { members: ri.members.clone(), container });
    }
    if head.starts_with(&[0x1f, 0x8b]) {
        let whole = MemberRange { offset: 0, compressed_len: ri.payload_len, uncompressed_len: 0 };
        return Ok(Plan { members: vec![whole], container: None });
    }
    Err(ServeError::Unsupported(format!(
        "gen {gen} rank {rank}: payload is not gzip-framed; stream restore needs a gzip or WPK1 segment"
    )))
}

/// CRC-32 of the first `len` bytes of `f`, streamed in small chunks.
fn crc_of_prefix(f: &mut fs::File, len: u64) -> Result<u32> {
    f.seek(SeekFrom::Start(0))?;
    let mut buf = vec![0u8; 64 << 10];
    let mut crc = 0u32;
    let mut remaining = len;
    while remaining > 0 {
        let take = usize::try_from(remaining.min(64 << 10)).unwrap_or(64 << 10);
        let slice = buf
            .get_mut(..take)
            .ok_or_else(|| ServeError::Proto("prefix chunk".into()))?;
        f.read_exact(slice)?;
        crc = crc32_extend(crc, slice);
        remaining -= u64::try_from(take).unwrap_or(0);
    }
    Ok(crc)
}

/// Durably replaces the resume token, staged at `<token>.tmp`. A kill at
/// any byte leaves either the previous token or the new one — never a
/// torn mix — so resume always has a valid starting point.
fn write_token(token_path: &Path, bytes: &[u8], fp: &FailPoint) -> Result<()> {
    fp.durable_replace(&Staging::beside(token_path), token_path, bytes)?;
    Ok(())
}
