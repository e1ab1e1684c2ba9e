//! `ckpt serve` / `ckpt fetch` — serve committed checkpoints over a
//! Unix-domain socket, and fetch them from another process.

use crate::args::Args;
use ckpt_serve::Client;
use std::path::Path;
use std::sync::{Arc, Mutex};

pub const SERVE_USAGE: &str = "\
USAGE:
  ckpt serve <dir> --socket <path> [--for-ms N]
  ckpt fetch <socket> --list true
  ckpt fetch <socket> [--gen N] [--rank N] [--chunk-bytes N] -o out

serve pins snapshots of the store at <dir> and answers SRV1 protocol
requests on the Unix socket: each connection reads against its own
immutable view, so restores proceed while the owning process keeps
saving, and GC leaves the pinned generations alone until the readers
disconnect. Without --for-ms the server runs until stdin reaches EOF
(pipe `true |` for scripts, Ctrl-D interactively).

fetch connects to a running server. --list prints the generation
table; otherwise the requested generation's rank payload (latest
committed by default) is reassembled from ranged reads of --chunk-bytes
(default 4 MiB) and CRC-verified against the committed manifest before
being written to -o.";

/// Default fetch read granularity; well under the frame bound.
const DEFAULT_CHUNK: u64 = 4 << 20;

pub fn serve(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("help") {
        say!("{SERVE_USAGE}");
        return Ok(());
    }
    let args = Args::parse(argv, "serve", &["socket", "for-ms"])?;
    let dir = args.one_positional("store dir")?;
    let socket = args.get("socket").ok_or("--socket is required for serve")?;
    let for_ms: Option<u64> = match args.get("for-ms") {
        Some(raw) => Some(raw.parse().map_err(|_| format!("invalid --for-ms {raw:?}"))?),
        None => None,
    };

    let store = crate::store_cmd::open(dir)?;
    let server = ckpt_serve::server::serve_unix(Arc::new(Mutex::new(store)), Path::new(socket))
        .map_err(|e| format!("binding {socket}: {e}"))?;
    eprintln!("serving {dir} on {socket}");

    match for_ms {
        Some(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        None => {
            // Block until whoever started us closes stdin; the socket
            // stays live the whole time.
            use std::io::Read;
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        }
    }
    let served = server.connections_served();
    drop(server); // stop the accept loop, remove the socket
    eprintln!("served {served} connections");
    Ok(())
}

pub fn fetch(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("help") {
        say!("{SERVE_USAGE}");
        return Ok(());
    }
    let args = Args::parse(argv, "fetch", &["list", "gen", "rank", "chunk-bytes", "out"])?;
    let socket = args.one_positional("server socket path")?;
    let mut client =
        Client::connect(Path::new(socket)).map_err(|e| format!("connecting to {socket}: {e}"))?;

    if args.get_or("list", false)? {
        let gens = client.list().map_err(|e| e.to_string())?;
        if gens.is_empty() {
            say!("(empty store)");
            return Ok(());
        }
        say!("{:>8} {:>8} {:<10} {:>5} {:>12}", "gen", "step", "format", "ranks", "bytes");
        for g in &gens {
            say!(
                "{:>8} {:>8} {:<10} {:>5} {:>12}",
                g.gen,
                g.step,
                g.format.name(),
                g.ranks,
                g.bytes
            );
        }
        if let Some(latest) = client.latest().map_err(|e| e.to_string())? {
            say!("latest committed: generation {latest}");
        }
        return Ok(());
    }

    let out = args.get("out").ok_or("-o/--out is required for fetch")?;
    let rank = args.get_or("rank", 0u32)?;
    let chunk = args.get_or("chunk-bytes", DEFAULT_CHUNK)?.max(1);
    let gen = match args.get("gen") {
        Some(g) => g.parse().map_err(|_| format!("invalid --gen {g:?}"))?,
        None => client
            .latest()
            .map_err(|e| e.to_string())?
            .ok_or("server has no committed generation")?,
    };

    let index = client.index(gen).map_err(|e| e.to_string())?;
    let ri = index
        .ranks
        .iter()
        .find(|r| r.rank == rank)
        .ok_or_else(|| format!("generation {gen} has no rank {rank}"))?;

    let mut file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    let mut reads = 0u64;
    let fetched = client.fetch_segment(gen, ri, chunk, |bytes| {
        reads += 1;
        std::io::Write::write_all(&mut file, bytes)
    });
    if let Err(e) = fetched {
        let _ = std::fs::remove_file(out);
        return Err(format!("{e}; refusing to keep {out}"));
    }
    eprintln!(
        "fetched gen {gen} rank {rank} ({} bytes, {reads} ranged reads, crc ok) -> {out}",
        ri.payload_len
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("ckpt-cli-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn serve_then_fetch_roundtrips_a_generation() {
        let dir = scratch("roundtrip");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
        let payload_file = scratch("roundtrip.payload");
        std::fs::write(&payload_file, &payload).unwrap();
        crate::store_cmd::dispatch(&argv(&[
            "save",
            dir.to_str().unwrap(),
            payload_file.to_str().unwrap(),
            "--step",
            "3",
        ]))
        .unwrap();

        let socket = scratch("roundtrip.sock");
        let serve_args = argv(&[
            dir.to_str().unwrap(),
            "--socket",
            socket.to_str().unwrap(),
            "--for-ms",
            "4000",
        ]);
        let server = std::thread::spawn(move || serve(&serve_args));

        // Wait for the socket to appear, then fetch over it.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let out = scratch("roundtrip.out");
        fetch(&argv(&[
            socket.to_str().unwrap(),
            "--chunk-bytes",
            "16384",
            "-o",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), payload);

        fetch(&argv(&[socket.to_str().unwrap(), "--list", "true"])).unwrap();
        // A missing rank is a clean error, not a hang.
        let err = fetch(&argv(&[
            socket.to_str().unwrap(),
            "--rank",
            "9",
            "-o",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("no rank 9"), "{err}");

        server.join().unwrap().unwrap();
        assert!(!socket.exists(), "stop() removes the socket");
        for p in [dir, payload_file, out] {
            let _ = std::fs::remove_dir_all(&p);
            let _ = std::fs::remove_file(&p);
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(serve(&argv(&[])).is_err());
        assert!(serve(&argv(&["/tmp/nowhere"])).is_err(), "missing --socket");
        assert!(fetch(&argv(&["/no/such/socket", "--list", "true"])).is_err());
        serve(&argv(&["help"])).unwrap();
        fetch(&argv(&["help"])).unwrap();
    }
}
