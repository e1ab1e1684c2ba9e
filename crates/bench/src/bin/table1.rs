//! Table I reproduction: the experimental platform.
//!
//! The paper's Table I documents its in-house cluster (Core i7-3930K,
//! 16 GB DDR3, NFS v3 over RAID6). Our substrate is the current host
//! plus the Section IV-D analytical model; this binary prints both so
//! every other figure's context is recorded.

use ckpt_bench::cluster::IoModel;

fn read_first_match(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
}

fn main() {
    println!("=== Table I: system specification (reproduction substrate) ===");
    println!();
    println!("Paper's platform        : Intel Core i7-3930K (6c, 3.2 GHz), 16 GB DDR3,");
    println!("                          NFS v3 1.5 TB (RAID6), Broadcom bnx2");
    println!();
    println!("This host:");
    let cpu = read_first_match("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mem = read_first_match("/proc/meminfo", "MemTotal").unwrap_or_else(|| "unknown".into());
    println!("  CPU                   : {cpu}");
    println!("  logical cores         : {cores}");
    println!("  MemTotal              : {mem}");
    println!("  OS                    : {}", std::env::consts::OS);
    println!("  arch                  : {}", std::env::consts::ARCH);
    println!();
    let io = IoModel::paper();
    println!("Analytical model parameters (Section IV-D):");
    println!("  PFS aggregate bandwidth : {:.0} GB/s", io.pfs_bandwidth / 1e9);
    println!("  checkpoint per process  : {:.1} MB", io.bytes_per_process / 1e6);
    println!("  mesh per variable       : 1156 x 82 x 2 f64");
}
