//! Ablation 2 (§4.2 I/O claim): "multi-threaded I/O in SysDS yields better
//! performance ... because string-to-double parsing is compute-intensive".
//! Measures CSV throughput with 1..N parser threads: `parse` on bytes
//! already in memory, `read` on the file path (two block-wise passes over
//! the file, no whole-file buffer), both also reported as MB/s of CSV text.
//!
//! Two inputs: 50000x40 values in ±1000 (short fields), and 8000x250
//! uniform [0,1) values, 16-17 significant digits a field, the shape
//! `hpo_reuse` reads.

use sysds_bench::{max_threads, time};
use sysds_io::FormatDescriptor;
use sysds_tensor::kernels::gen;

fn main() {
    let dir = sysds_bench::bench_dir().join("csv");
    std::fs::create_dir_all(&dir).unwrap();
    let desc = FormatDescriptor::csv();
    let mut sweep = vec![1usize, 2, 4, max_threads()];
    sweep.sort_unstable();
    sweep.dedup();
    let inputs = [
        (
            "pm1000",
            gen::rand_uniform(50_000, 40, -1000.0, 1000.0, 1.0, 6101),
        ),
        ("unit", gen::rand_uniform(8_000, 250, 0.0, 1.0, 1.0, 6102)),
    ];
    for (name, m) in inputs {
        let path = dir.join(format!("parse-bench-{name}.csv"));
        sysds_io::csv::write_matrix(&path, &m, &desc).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mb = bytes.len() as f64 / 1e6;
        let report = |secs: f64| println!("{:>48} {:>10.1} MB/s", "", mb / secs);
        println!("# {name}: {}x{}, {mb:.1} MB", m.rows(), m.cols());
        for &threads in &sweep {
            report(time(
                &format!("ablation_csv/{name}/parse/{threads}"),
                || sysds_io::csv::parse_matrix(&bytes, &desc, threads).unwrap(),
            ));
        }
        for &threads in &sweep {
            report(time(&format!("ablation_csv/{name}/read/{threads}"), || {
                sysds_io::csv::read_matrix(&path, &desc, threads).unwrap()
            }));
        }
    }
}
