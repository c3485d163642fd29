//! The MINOS two-clock benchmark.
//!
//! ```text
//! perfbench --workload <bulk_read|browse_publish|lossy_fleet> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the library through its public client APIs, one
//! single-threaded connection, and checks every delivered byte. A run
//! repeats the workload (fresh servers each time) for
//! `--seconds`, with at least `MIN_REPS` repetitions:
//!
//! * simulated metrics are exact, and every repetition must reproduce
//!   them bit for bit (the determinism gate; a mismatch exits non-zero);
//! * host metrics count only time inside library calls, in segments closed
//!   at fixed points of the workload; each segment's fastest repetition
//!   is kept, and the metric is the sum of those fastest segments. A slow
//!   spell of the machine then spoils one segment of one repetition, not
//!   the whole measurement. Every repetition's own value is printed
//!   beside it.
//!
//! `--trace 1` alternates untraced and traced repetitions, replays the
//! last repetition's pages, frames and timers through each layer, writes
//! its spans as Chrome trace-event JSON to `perfbench/out/<workload>.trace.json`,
//! and reports the per-layer metrics. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod browse;
mod fleet;
mod replay;
mod sim;
mod trace;

use sim::SimSummary;
use std::time::{Duration, Instant};
use trace::{span_self_percentiles, Probe, Tracer};

/// Fewest repetitions in a run, whatever `--seconds` says.
const MIN_REPS: usize = 5;
/// Most spans written to a trace file (the per-layer metrics use all).
const TRACE_EXPORT_CAP: usize = 100_000;

/// One repetition's two clocks.
pub struct Rep {
    /// Host time inside library calls while building servers and
    /// publishing, by segment.
    pub setup: Vec<Duration>,
    /// Host time inside library calls during the measured loop, by
    /// segment.
    pub run: Vec<Duration>,
    pub sim: SimSummary,
}

/// The fastest time seen for each segment of a phase.
#[derive(Default)]
struct Fastest(Vec<Duration>);

impl Fastest {
    fn add(&mut self, segments: &[Duration]) {
        if self.0.is_empty() {
            self.0 = segments.to_vec();
        }
        assert_eq!(self.0.len(), segments.len(), "repetitions close the same segments");
        for (best, &s) in self.0.iter_mut().zip(segments) {
            *best = (*best).min(s);
        }
    }

    fn total(&self) -> f64 {
        self.0.iter().sum::<Duration>().as_secs_f64()
    }
}

fn total(segments: &[Duration]) -> f64 {
    segments.iter().sum::<Duration>().as_secs_f64()
}

enum Workload {
    Fleet(fleet::FleetWorkload),
    Browse(browse::Browse),
}

impl Workload {
    fn rep(&mut self, probe: &mut Probe, keep: bool) -> Rep {
        match self {
            Workload::Fleet(w) => w.rep(probe, keep),
            Workload::Browse(w) => w.rep(probe, keep),
        }
    }

    fn replay(&mut self) -> replay::Replayed {
        match self {
            Workload::Fleet(w) => w.replay(),
            Workload::Browse(w) => w.replay(),
        }
    }
}

/// Per-layer metrics: name, unit, and the end-to-end metric and workload
/// each should move.
const PER_LAYER: [(&str, &str, &str); 48] = [
    ("sim_deadline_miss_ratio", "ratio", "end to end, lossy_fleet: over the latency limit, plus failed, over attempted"),
    ("sim_gen_lag_p99_ms", "ms", "end to end, lossy_fleet: how late the open-loop generator submitted"),
    ("failed_ratio", "ratio", "end to end, all: must stay 0"),
    ("net.link.busy_ratio", "ratio", "sim_goodput_per_s, sim_latency_p99_ms on bulk_read, browse_publish"),
    ("net.link.bytes_per_op", "B/op", "sim_goodput_per_s, sim_latency_p99_ms on bulk_read, browse_publish"),
    ("storage.optical.busy_ratio", "ratio", "sim_goodput_per_s on bulk_read"),
    ("storage.optical.bytes_read_per_op", "B/op", "sim_goodput_per_s on bulk_read"),
    ("server.service.busy_ratio", "ratio", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet; sim_goodput_per_s on bulk_read"),
    ("server.service.coalesced_runs", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet; sim_goodput_per_s on bulk_read"),
    ("server.service.queue_high_water", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet; sim_goodput_per_s on bulk_read"),
    ("server.service.busy_rejections", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet; sim_goodput_per_s on bulk_read"),
    ("core.transport.retries_per_op", "1/op", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet"),
    ("core.transport.timeouts", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet"),
    ("core.transport.failovers", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet"),
    ("core.transport.duplicates", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet"),
    ("core.transport.corrupt_frames", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet"),
    ("core.fleet.busy_deferred", "count", "sim_latency_p99_ms, sim_deadline_miss_ratio on lossy_fleet"),
    ("core.kernel.events_fired", "count", "host_ops_per_s on lossy_fleet"),
    ("core.kernel.timers_armed", "count", "host_ops_per_s on lossy_fleet"),
    ("core.kernel.spurious_wakes", "count", "host_ops_per_s on lossy_fleet"),
    ("net.pool.hit_ratio", "ratio", "host_ops_per_s, peak_rss_mib on bulk_read"),
    ("net.fault.injected", "count", "none: a control, fixed for a given seed, on lossy_fleet"),
    ("span.core.fleet.fetch_page.self_ns_p50", "ns", "host_ops_per_s on bulk_read, lossy_fleet"),
    ("span.core.fleet.fetch_page.self_ns_p99", "ns", "host_ops_per_s on bulk_read, lossy_fleet"),
    ("span.core.fleet.wait.self_ns_p50", "ns", "host_ops_per_s on bulk_read, lossy_fleet"),
    ("span.core.fleet.wait.self_ns_p99", "ns", "host_ops_per_s on bulk_read, lossy_fleet"),
    ("span.core.fleet.advance_to.self_ns_p50", "ns", "host_ops_per_s on lossy_fleet"),
    ("span.core.fleet.advance_to.self_ns_p99", "ns", "host_ops_per_s on lossy_fleet"),
    ("span.core.remote.submit.self_ns_p50", "ns", "host_ops_per_s on browse_publish"),
    ("span.core.remote.submit.self_ns_p99", "ns", "host_ops_per_s on browse_publish"),
    ("span.core.remote.wait.self_ns_p50", "ns", "host_ops_per_s on browse_publish"),
    ("span.core.remote.wait.self_ns_p99", "ns", "host_ops_per_s on browse_publish"),
    ("span.core.fleet.publish_paged.self_ns_p50", "ns", "setup_s on bulk_read, lossy_fleet"),
    ("span.core.fleet.publish_paged.self_ns_p99", "ns", "setup_s on bulk_read, lossy_fleet"),
    ("span.server.publish.self_ns_p50", "ns", "setup_s, host_ops_per_s on browse_publish"),
    ("span.server.publish.self_ns_p99", "ns", "setup_s, host_ops_per_s on browse_publish"),
    ("net.crc32.ns_per_kib", "ns/KiB", "setup_s on bulk_read; host_ops_per_s on lossy_fleet; no change on browse_publish"),
    ("net.frame.encode_ns", "ns", "host_ops_per_s on browse_publish"),
    ("net.frame.decode_ns", "ns", "host_ops_per_s on browse_publish"),
    ("server.handle_ns.query", "ns", "host_ops_per_s on browse_publish"),
    ("server.handle_ns.miniature", "ns", "host_ops_per_s on browse_publish"),
    ("server.handle_ns.view", "ns", "host_ops_per_s on browse_publish"),
    ("server.handle_ns.object", "ns", "host_ops_per_s on browse_publish"),
    ("server.handle_ns.span", "ns", "host_ops_per_s on bulk_read, lossy_fleet"),
    ("storage.read_at_into_ns_per_kib", "ns/KiB", "host_ops_per_s on bulk_read"),
    ("net.pool.lease_recycle_ns", "ns", "host_ops_per_s on bulk_read"),
    ("core.kernel.arm_fire_ns", "ns", "host_ops_per_s on lossy_fleet"),
    ("trace.overhead_ratio", "ratio", "none: untraced / traced host_ops_per_s"),
];

/// The spans whose self time is reported.
const SPAN_NAMES: [&str; 7] = [
    "core.fleet.fetch_page",
    "core.fleet.wait",
    "core.fleet.advance_to",
    "core.remote.submit",
    "core.remote.wait",
    "core.fleet.publish_paged",
    "server.publish",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The process high-water resident set (`VmHWM`), in MiB. The reported
/// `peak_rss_mib` is read after the first repetition (inputs plus one
/// full set-up and run): later repetitions only add allocator
/// fragmentation from rebuilding the servers, which varies with the seed.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fmt_list(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let generated = Instant::now();
    let mut workload = match args.workload.as_str() {
        "bulk_read" => Workload::Fleet(fleet::FleetWorkload::new(fleet::Mode::Bulk, args.seed)),
        "lossy_fleet" => Workload::Fleet(fleet::FleetWorkload::new(fleet::Mode::Lossy, args.seed)),
        "browse_publish" => Workload::Browse(browse::Browse::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} inputs_generated_s {:.3}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        generated.elapsed().as_secs_f64()
    );

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut first: Option<SimSummary> = None;
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut fastest_setup = Fastest::default();
    let mut fastest_run = Fastest::default();
    let mut fastest_traced_run = Fastest::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tracer: Option<Tracer> = None;
    let mut reps = 0usize;
    let mut first_rss = 0.0;
    loop {
        let need = if args.trace { MIN_REPS + 1 } else { MIN_REPS };
        let last = reps + 1 >= need && started.elapsed() >= budget;
        // Traced runs alternate untraced and traced repetitions; the last
        // one is traced and kept for the replays.
        let traced = args.trace && (reps % 2 == 1 || last);
        let mut probe = Probe::new(traced);
        let rep = workload.rep(&mut probe, args.trace && last);
        let rate = rep.sim.ops as f64 / total(&rep.run).max(1e-9);
        if traced {
            traced_rates.push(rate);
            fastest_traced_run.add(&rep.run);
            tracer = probe.tracer.take();
        } else {
            rates.push(rate);
            setups.push(total(&rep.setup));
            fastest_run.add(&rep.run);
            fastest_setup.add(&rep.setup);
        }
        if reps == 0 {
            first_rss = peak_rss_mib();
        }
        attempted += rep.sim.attempted;
        failed += rep.sim.failed;
        match &first {
            None => first = Some(rep.sim),
            Some(f) => {
                let diff = f.diff(&rep.sim);
                if !diff.is_empty() {
                    println!(
                        "determinism gate FAILED: repetition {reps} differs from repetition 0"
                    );
                    for d in diff {
                        println!("  {d}");
                    }
                    std::process::exit(3);
                }
            }
        }
        reps += 1;
        if last {
            break;
        }
    }
    let sim = first.expect("at least one repetition");

    let best_rate = sim.ops as f64 / fastest_run.total().max(1e-9);
    let best_setup = fastest_setup.total();
    println!(
        "repetitions {reps} (untraced {}, traced {}), all simulated results identical",
        rates.len(),
        traced_rates.len()
    );
    println!(
        "rep host_ops_per_s  {}  fastest rep {:.4}  fastest per segment ({} segments) {best_rate:.4}",
        fmt_list(&rates),
        rates.iter().copied().fold(0.0, f64::max),
        fastest_run.0.len()
    );
    println!(
        "rep setup_s         {}  fastest rep {:.6}  fastest per segment ({} segments) {best_setup:.6}",
        fmt_list(&setups),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        fastest_setup.0.len()
    );
    if !sim.failures.is_empty() {
        for f in &sim.failures {
            println!("FAILED {f}");
        }
    }

    let e2e = [
        ("sim_goodput_per_s", "ops/s", sim.goodput_per_s()),
        ("sim_latency_p50_ms", "ms", sim.latency_ms(0.50)),
        ("sim_latency_p99_ms", "ms", sim.latency_ms(0.99)),
        ("host_ops_per_s", "ops/s", best_rate),
        ("setup_s", "s", best_setup),
        ("peak_rss_mib", "MiB", first_rss),
    ];
    println!("peak_rss_mib after repetition 0 {first_rss}, after all {}", peak_rss_mib());
    println!(
        "ops {} attempted {} failed {} sim_elapsed_s {:.6} latency_samples {} deadline_ms {}",
        sim.ops,
        sim.attempted,
        sim.failed,
        sim.elapsed_us as f64 / 1e6,
        sim.latencies_us.len(),
        sim.deadline_us as f64 / 1e3
    );
    for (name, unit, value) in e2e {
        println!("e2e {name} = {value} {unit}");
    }
    println!("e2e sim_deadline_miss_ratio = {} ratio", sim.deadline_miss_ratio());
    println!("e2e sim_gen_lag_p99_ms = {} ms", sim.gen_lag_p99_ms());
    println!("e2e failed_ratio = {} ratio", sim.failed_ratio());

    let reported: Vec<(&str, &str, f64)> = if args.trace {
        let best_traced = sim.ops as f64 / fastest_traced_run.total().max(1e-9);
        println!(
            "rep traced host_ops_per_s  {}  fastest per segment {best_traced:.4}",
            fmt_list(&traced_rates)
        );
        let spans = tracer.as_ref().map_or(&[][..], |t| t.spans.as_slice());
        let mut layer: Vec<(String, f64)> = vec![
            ("sim_deadline_miss_ratio".into(), sim.deadline_miss_ratio()),
            ("sim_gen_lag_p99_ms".into(), sim.gen_lag_p99_ms()),
            ("failed_ratio".into(), sim.failed_ratio()),
        ];
        layer.extend(sim.layers.iter().map(|&(n, v)| (n.to_string(), v)));
        for name in SPAN_NAMES {
            let (p50, p99) = span_self_percentiles(spans, name);
            layer.push((format!("span.{name}.self_ns_p50"), p50 as f64));
            layer.push((format!("span.{name}.self_ns_p99"), p99 as f64));
        }
        layer.extend(workload.replay().metrics().into_iter().map(|(n, v)| (n.to_string(), v)));
        layer.push(("trace.overhead_ratio".into(), best_rate / best_traced.max(1e-9)));
        let mut reported = Vec::with_capacity(PER_LAYER.len());
        for (name, unit, moves) in PER_LAYER {
            let Some(&(_, value)) = layer.iter().find(|(n, _)| n == name) else {
                eprintln!("perfbench: per-layer metric {name} was not measured");
                std::process::exit(4);
            };
            println!("layer {name} = {value} {unit}  -> moves {moves}");
            reported.push((name, unit, value));
        }
        if let Some(t) = &tracer {
            export_trace(t, &args.workload);
        }
        reported
    } else {
        e2e.to_vec()
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = sim.failed == 0 && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

/// Writes the traced repetition's spans as Chrome trace-event JSON to
/// `perfbench/out/<workload>.trace.json`.
fn export_trace(tracer: &Tracer, workload: &str) {
    println!("traced repetition spans {} (exported up to {TRACE_EXPORT_CAP})", tracer.spans.len());
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{workload}.trace.json"));
    let json = tracer.to_chrome_json(workload, TRACE_EXPORT_CAP);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("trace not written to {}: {e}", path.display()),
    }
}
