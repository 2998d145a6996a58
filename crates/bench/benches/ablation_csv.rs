//! Ablation 2 (§4.2 I/O claim): "multi-threaded I/O in SysDS yields better
//! performance ... because string-to-double parsing is compute-intensive".
//! Measures CSV throughput with 1..N parser threads: `parse` on bytes
//! already in memory, `read` on the file path (two block-wise passes over
//! the file, no whole-file buffer), both also reported as MB/s of CSV text.

use sysds_bench::{max_threads, time};
use sysds_io::FormatDescriptor;
use sysds_tensor::kernels::gen;

fn main() {
    let dir = sysds_bench::bench_dir().join("csv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parse-bench.csv");
    let m = gen::rand_uniform(50_000, 40, -1000.0, 1000.0, 1.0, 6101);
    let desc = FormatDescriptor::csv();
    sysds_io::csv::write_matrix(&path, &m, &desc).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mb = bytes.len() as f64 / 1e6;
    let report = |secs: f64| println!("{:>48} {:>10.1} MB/s", "", mb / secs);

    let mut sweep = vec![1usize, 2, 4, max_threads()];
    sweep.sort_unstable();
    sweep.dedup();
    for &threads in &sweep {
        report(time(&format!("ablation_csv/parse/{threads}"), || {
            sysds_io::csv::parse_matrix(&bytes, &desc, threads).unwrap()
        }));
    }
    for &threads in &sweep {
        report(time(&format!("ablation_csv/read/{threads}"), || {
            sysds_io::csv::read_matrix(&path, &desc, threads).unwrap()
        }));
    }
}
