//! Command-line handling for the bench binaries.
//!
//! Every `bin/` target starts `main` with [`RunOpts::init`] — one
//! strict parse of argv shared by all binaries, so an unknown or
//! malformed flag fails uniformly (status 2) everywhere — then wraps
//! its body in [`run`] or [`run_tasks`]. The shared flags:
//!
//! * `--trace <path>` (or `--trace=<path>`): install a
//!   [`TraceRecorder`] for the duration of the run and write the
//!   Chrome trace-event JSON (Perfetto-loadable) to `path` on exit.
//! * `--metrics <path>` (or `--metrics=<path>`): write the flat
//!   metrics registry on exit — CSV if `path` ends in `.csv`, JSON
//!   otherwise.
//! * `--journal <path>` (or `--journal=<path>`): install a
//!   [`simcore::journal`] fault-lifecycle recorder for the run and
//!   write it on exit — the tail-attribution text report if `path`
//!   ends in `.txt`, Chrome trace-event flow JSON otherwise.
//! * `--chaos-seed <n>` / `--chaos-profile <name>`: build a
//!   [`ChaosConfig`] for fault injection ([`chaos_config`]). Profiles:
//!   `network`, `interrupts`, `npf`, `memory`, `iommu`, `all`
//!   (default `all`). Binaries that support chaos pass the config into
//!   their testbeds; a failing run prints the seed for replay.
//! * `--jobs <n>` (or `--jobs=<n>`): the worker count of the one
//!   executor, [`simcore::shard::run_isolated`]. [`run_tasks`] fans a
//!   binary's experiment points over it, and the experiment drivers fan
//!   a figure's independent testbeds over it; a pool nested in a worker
//!   gets only that worker's share, so at most `n` simulations are
//!   live. `0` means "all available cores"; absent means 1. Output is
//!   byte-identical at every count. `--shards <n>` is an alias; given
//!   both, the larger wins.
//! * `--tenants <n>` / `--arbiter <policy>` / `--quota <entries>`:
//!   multi-tenant scale knobs — tenant count, cross-channel fault
//!   arbitration policy (`channel`, `rr`, `wfq`), and per-tenant
//!   backup-ring quota — consumed by the binaries that sweep tenants
//!   (`scalebench`), accepted uniformly by all.
//! * `--backend <kind>`: which ODP backend services faults —
//!   `firmware` (the paper's NPF path, default), `softemu` (NP-RDMA-
//!   style driver-level emulation), or `pinned` — consumed by the
//!   binaries that compare backends (`backendbench`), accepted
//!   uniformly by all.
//! * `--hugepages <on|off>` / `--prefetch <depth>` / `--tier <mib>`:
//!   the translation/backing-memory knobs — 2 MiB huge-page folding in
//!   the IOMMU tables and IOTLB, speculative stride-stream NPF
//!   prefetch (`depth` pages per issue, 0 disables), and an NVM
//!   backing tier of `mib` MiB in front of the swap disk (0 disables).
//!   All default off so every existing figure is byte-identical; the
//!   experiment drivers splice them into [`npf_config`] and
//!   [`tier_config`] uniformly.
//! * `--transport <gbn|irn>` / `--loss <p>` / `--pfc <on|off>` /
//!   `--ecn <on|off>`: the lossy-fabric knobs — RC loss-recovery
//!   discipline (go-back-N or IRN-style selective repeat), random
//!   per-packet loss probability, 802.1Qbb priority flow control on
//!   the switch, and ECN marking. All default to the legacy lossless
//!   go-back-N fabric so every existing figure is byte-identical; the
//!   experiment drivers splice them in via [`fabric_profile`] and
//!   [`transport_config`].
//!
//! Traces are stamped exclusively with [`simcore::time::SimTime`], so
//! the same seed produces byte-identical files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use memsim::manager::TierConfig;
use memsim::swap::DiskConfig;
use netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf_core::npf::NpfConfig;
use npf_core::{ArbiterPolicy, BackendKind};
use simcore::chaos::{invariant, ChaosConfig, ChaosProfile, InvariantChecker};
use simcore::journal::{self, JournalRecorder};
use simcore::shard::Task;
use simcore::trace::{self, TraceRecorder};
use simcore::units::ByteSize;

/// Default ring capacity for binary-driven traces: large enough to
/// hold full experiment runs without wrapping.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Extracts the value of `--<flag> <path>` or `--<flag>=<path>` from
/// an argv-style iterator.
fn flag_value<I: IntoIterator<Item = String>>(args: I, flag: &str) -> Option<PathBuf> {
    let long = format!("--{flag}");
    let eq = format!("--{flag}=");
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == long {
            let value = args.next();
            if value.is_none() {
                eprintln!("warning: {long} requires a path argument; ignoring");
            }
            return value.map(PathBuf::from);
        }
        if let Some(rest) = a.strip_prefix(&eq) {
            return Some(PathBuf::from(rest));
        }
    }
    None
}

/// The flags every bench binary accepts. A binary registers any extra
/// value-taking flags of its own via [`RunOpts::init`]; anything else
/// on the command line is rejected with a uniform error.
const STANDARD_FLAGS: &[&str] = &[
    "trace",
    "metrics",
    "journal",
    "chaos-seed",
    "chaos-profile",
    "jobs",
    "shards",
    "tenants",
    "arbiter",
    "quota",
    "backend",
    "hugepages",
    "prefetch",
    "tier",
    "transport",
    "loss",
    "pfc",
    "ecn",
];

/// The one parsed view of a bench binary's command line.
///
/// Every `bin/` target calls [`RunOpts::init`] first thing in `main`,
/// naming whatever extra value-taking flags it understands (for most
/// binaries: none). Parsing is strict — an unknown `--flag`, a missing
/// value, a duplicate, or a stray positional argument prints one
/// uniform error line and exits with status 2 — so every binary
/// rejects typos the same way instead of silently ignoring them.
///
/// The module's free functions ([`trace_path`], [`chaos_config`],
/// [`jobs`], …) consult the initialized `RunOpts` when one exists and
/// fall back to a lenient argv scan otherwise (the in-process test
/// path, where libtest owns argv).
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// `--trace <path>`: write a Chrome trace-event JSON on exit.
    pub trace: Option<PathBuf>,
    /// `--metrics <path>`: write the metrics registry on exit.
    pub metrics: Option<PathBuf>,
    /// `--journal <path>`: write the fault-lifecycle journal on exit.
    pub journal: Option<PathBuf>,
    /// `--chaos-seed` / `--chaos-profile`: fault injection, if asked.
    pub chaos: Option<ChaosConfig>,
    /// `--jobs <n>` (alias `--shards <n>`; the larger wins when both
    /// are given) executor workers; absent → 1, `0` → all cores.
    pub jobs: usize,
    /// `--tenants <n>`: tenant/IOchannel count for scale sweeps.
    pub tenants: Option<u32>,
    /// `--arbiter <policy>`: cross-channel fault arbitration policy
    /// (`channel`, `rr`, `wfq`).
    pub arbiter: Option<ArbiterPolicy>,
    /// `--quota <entries>`: per-tenant backup-ring quota.
    pub quota: Option<u64>,
    /// `--backend <kind>`: the ODP backend (`firmware`, `softemu`,
    /// `pinned`).
    pub backend: Option<BackendKind>,
    /// `--hugepages <on|off>`: 2 MiB huge-page folding in the IOMMU
    /// page tables and IOTLB.
    pub huge_pages: bool,
    /// `--prefetch <depth>`: speculative stride-stream NPF prefetch
    /// depth in pages (0 disables).
    pub prefetch: u32,
    /// `--tier <mib>`: NVM backing-tier capacity in MiB (absent or 0
    /// disables tiering).
    pub tier_mib: Option<u64>,
    /// `--transport <gbn|irn>`: the RC loss-recovery discipline.
    pub transport: RdmaTransport,
    /// `--loss <p>`: random per-packet loss probability in `[0, 1)`.
    pub loss: f64,
    /// `--pfc <on|off>`: 802.1Qbb priority flow control at the switch.
    pub pfc: bool,
    /// `--ecn <on|off>`: ECN marking when the queueing delay crosses
    /// the profile's threshold.
    pub ecn: bool,
    /// Values of the binary-specific flags registered with `init`.
    extras: BTreeMap<String, String>,
}

static OPTS: OnceLock<RunOpts> = OnceLock::new();

/// The `--help` text shared by every bench binary: the standard flags
/// plus whatever extras the binary registered with [`RunOpts::init`].
fn usage(bin: &str, extra: &[&str]) -> String {
    let mut out = format!("usage: {bin} [--flag value ...]\n\nstandard flags:\n");
    out.push_str(
        "  --trace <path>         write a Chrome trace-event JSON on exit\n\
         \x20 --metrics <path>       write the metrics registry (CSV for .csv paths)\n\
         \x20 --journal <path>       write the fault-lifecycle journal (.txt for text)\n\
         \x20 --chaos-seed <n>       enable fault injection with seed n\n\
         \x20 --chaos-profile <p>    chaos profile: network, interrupts, npf, memory,\n\
         \x20                        iommu, all (default all)\n\
         \x20 --jobs <n>             run independent experiment points and testbeds\n\
         \x20                        on n workers (0 = all cores); output is\n\
         \x20                        byte-identical at any n\n\
         \x20 --shards <n>           alias of --jobs (the larger wins if both given)\n\
         \x20 --tenants <n>          tenant/IO-channel count for scale sweeps\n\
         \x20 --arbiter <policy>     cross-channel fault arbitration: channel, rr, wfq\n\
         \x20 --quota <entries>      per-tenant backup-ring quota\n\
         \x20 --backend <kind>       ODP backend: firmware, softemu, pinned\n\
         \x20 --hugepages <on|off>   fold 2 MiB huge pages in the IOMMU tables + IOTLB\n\
         \x20 --prefetch <depth>     speculative NPF prefetch depth in pages (0 = off)\n\
         \x20 --tier <mib>           NVM backing tier of <mib> MiB before swap (0 = off)\n\
         \x20 --transport <t>        RC loss recovery: gbn (go-back-N, default), irn\n\
         \x20                        (selective repeat with a BDP cap)\n\
         \x20 --loss <p>             random per-packet loss probability (default 0)\n\
         \x20 --pfc <on|off>         802.1Qbb priority flow control at the switch\n\
         \x20 --ecn <on|off>         ECN marking above the queueing-delay threshold\n",
    );
    if !extra.is_empty() {
        out.push_str("\nbinary-specific flags:\n");
        for name in extra {
            out.push_str(&format!("  --{name} <value>\n"));
        }
    }
    out
}

impl RunOpts {
    /// Parses the process command line, accepting [`STANDARD_FLAGS`]
    /// plus the binary's own `extra` value-taking flags. Call once at
    /// the top of `main`; later calls (and the module's free
    /// functions) reuse the first result. Exits with status 2 on any
    /// malformed or unknown argument.
    pub fn init(extra: &[&str]) -> &'static RunOpts {
        OPTS.get_or_init(|| {
            let args: Vec<String> = std::env::args().skip(1).collect();
            if args.iter().any(|a| a == "--help" || a == "-h") {
                let bin = std::env::args()
                    .next()
                    .unwrap_or_else(|| "bench".to_owned());
                print!("{}", usage(&bin, extra));
                std::process::exit(0);
            }
            match Self::parse(&args, extra) {
                Ok(opts) => opts,
                Err(e) => {
                    let bin = std::env::args()
                        .next()
                        .unwrap_or_else(|| "bench".to_owned());
                    eprintln!("{bin}: error: {e}");
                    std::process::exit(2);
                }
            }
        })
    }

    /// The options parsed by [`RunOpts::init`], when a binary has run
    /// it; `None` in library/test contexts where argv belongs to the
    /// test harness.
    #[must_use]
    pub fn get() -> Option<&'static RunOpts> {
        OPTS.get()
    }

    /// Strict parse of an argv slice. Every flag takes a value, in
    /// either `--flag value` or `--flag=value` form.
    ///
    /// # Errors
    ///
    /// Returns a one-line description for an unknown flag, a missing
    /// value, a duplicated flag, a positional argument, or a value
    /// that fails typed conversion.
    pub fn parse(args: &[String], extra: &[&str]) -> Result<Self, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {arg:?} (flags are --name value)"
                ));
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_owned())),
                None => (body, None),
            };
            if !STANDARD_FLAGS.contains(&name) && !extra.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = match inline {
                Some(v) => v,
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} requires a value"))?,
            };
            if values.insert(name.to_owned(), value).is_some() {
                return Err(format!("--{name} given more than once"));
            }
        }
        Self::from_values(values, extra)
    }

    fn from_values(mut values: BTreeMap<String, String>, extra: &[&str]) -> Result<Self, String> {
        let seed = values
            .remove("chaos-seed")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--chaos-seed must be an integer: {e}"))
            })
            .transpose()?;
        let profile = values
            .remove("chaos-profile")
            .map(|v| {
                ChaosProfile::from_name(&v)
                    .ok_or_else(|| format!("unknown --chaos-profile {v:?} (try \"all\")"))
            })
            .transpose()?;
        let chaos = if seed.is_none() && profile.is_none() {
            None
        } else {
            Some(ChaosConfig::profile(
                profile.unwrap_or(ChaosProfile::All),
                seed.unwrap_or(0),
            ))
        };
        // `--shards` is an alias of `--jobs`; given both, the larger wins.
        let mut jobs = 1;
        for flag in ["jobs", "shards"] {
            if let Some(v) = values.remove(flag) {
                let n = v
                    .parse::<usize>()
                    .map_err(|e| format!("--{flag} must be an integer: {e}"))?;
                jobs = jobs.max(if n == 0 {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                } else {
                    n
                });
            }
        }
        let tenants = values
            .remove("tenants")
            .map(|v| {
                v.parse::<u32>()
                    .map_err(|e| format!("--tenants must be an integer: {e}"))
            })
            .transpose()?;
        let arbiter = values
            .remove("arbiter")
            .map(|v| ArbiterPolicy::parse(&v).map_err(|e| format!("--arbiter: {e}")))
            .transpose()?;
        let quota = values
            .remove("quota")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--quota must be an integer: {e}"))
            })
            .transpose()?;
        let backend = values
            .remove("backend")
            .map(|v| BackendKind::parse(&v).map_err(|e| format!("--backend: {e}")))
            .transpose()?;
        let huge_pages = values
            .remove("hugepages")
            .map(|v| parse_switch(&v).ok_or_else(|| format!("--hugepages must be on|off: {v:?}")))
            .transpose()?
            .unwrap_or(false);
        let prefetch = values
            .remove("prefetch")
            .map(|v| {
                v.parse::<u32>()
                    .map_err(|e| format!("--prefetch must be an integer: {e}"))
            })
            .transpose()?
            .unwrap_or(0);
        let tier_mib = values
            .remove("tier")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--tier must be an integer (MiB): {e}"))
            })
            .transpose()?
            .filter(|&mib| mib > 0);
        let transport = values
            .remove("transport")
            .map(|v| {
                RdmaTransport::from_name(&v)
                    .ok_or_else(|| format!("--transport must be gbn|irn: {v:?}"))
            })
            .transpose()?
            .unwrap_or_default();
        let loss = values
            .remove("loss")
            .map(|v| {
                let p = v
                    .parse::<f64>()
                    .map_err(|e| format!("--loss must be a probability: {e}"))?;
                if !p.is_finite() || !(0.0..1.0).contains(&p) {
                    return Err(format!("--loss must be in [0, 1): {v:?}"));
                }
                Ok(p)
            })
            .transpose()?
            .unwrap_or(0.0);
        let pfc = values
            .remove("pfc")
            .map(|v| parse_switch(&v).ok_or_else(|| format!("--pfc must be on|off: {v:?}")))
            .transpose()?
            .unwrap_or(false);
        let ecn = values
            .remove("ecn")
            .map(|v| parse_switch(&v).ok_or_else(|| format!("--ecn must be on|off: {v:?}")))
            .transpose()?
            .unwrap_or(false);
        if pfc && loss > 0.0 {
            return Err(format!(
                "--pfc models a lossless fabric; it cannot be combined with --loss {loss}"
            ));
        }
        let trace = values.remove("trace").map(PathBuf::from);
        let metrics = values.remove("metrics").map(PathBuf::from);
        let journal = values.remove("journal").map(PathBuf::from);
        // What's left can only be the binary's registered extras.
        debug_assert!(values.keys().all(|k| extra.contains(&k.as_str())));
        Ok(RunOpts {
            trace,
            metrics,
            journal,
            chaos,
            jobs,
            tenants,
            arbiter,
            quota,
            backend,
            huge_pages,
            prefetch,
            tier_mib,
            transport,
            loss,
            pfc,
            ecn,
            extras: values,
        })
    }

    /// The value of a binary-specific flag registered with `init`.
    #[must_use]
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras.get(name).map(String::as_str)
    }

    /// The requested chaos config, defaulting to disabled.
    #[must_use]
    pub fn chaos_or_disabled(&self) -> ChaosConfig {
        self.chaos.unwrap_or_else(ChaosConfig::disabled)
    }
}

/// `--trace <path>` from the process arguments, if present.
#[must_use]
pub fn trace_path() -> Option<PathBuf> {
    if let Some(opts) = RunOpts::get() {
        return opts.trace.clone();
    }
    flag_value(std::env::args().skip(1), "trace")
}

/// `--metrics <path>` from the process arguments, if present.
#[must_use]
pub fn metrics_path() -> Option<PathBuf> {
    if let Some(opts) = RunOpts::get() {
        return opts.metrics.clone();
    }
    flag_value(std::env::args().skip(1), "metrics")
}

/// `--journal <path>` from the process arguments, if present.
#[must_use]
pub fn journal_path() -> Option<PathBuf> {
    if let Some(opts) = RunOpts::get() {
        return opts.journal.clone();
    }
    flag_value(std::env::args().skip(1), "journal")
}

/// Builds a [`ChaosConfig`] from `--chaos-seed` / `--chaos-profile`
/// argv-style arguments. Returns `None` (chaos disabled) when neither
/// flag is present; `--chaos-profile` alone uses seed 0.
fn chaos_from_args<I: IntoIterator<Item = String>>(args: I) -> Option<ChaosConfig> {
    let args: Vec<String> = args.into_iter().collect();
    let seed = flag_value(args.iter().cloned(), "chaos-seed").map(|p| {
        p.to_string_lossy()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("--chaos-seed must be an integer: {e}"))
    });
    let profile = flag_value(args, "chaos-profile").map(|p| {
        let name = p.to_string_lossy();
        ChaosProfile::from_name(&name)
            .unwrap_or_else(|| panic!("unknown --chaos-profile {name:?} (try \"all\")"))
    });
    if seed.is_none() && profile.is_none() {
        return None;
    }
    Some(ChaosConfig::profile(
        profile.unwrap_or(ChaosProfile::All),
        seed.unwrap_or(0),
    ))
}

/// The fault-injection config requested on the command line, if any.
/// On the first call with chaos enabled, prints the chosen seed so a
/// violation can be replayed (experiments build many testbeds; one
/// announcement is enough).
#[must_use]
pub fn chaos_config() -> Option<ChaosConfig> {
    static ANNOUNCE: std::sync::Once = std::sync::Once::new();
    let cfg = match RunOpts::get() {
        Some(opts) => opts.chaos?,
        None => chaos_from_args(std::env::args().skip(1))?,
    };
    ANNOUNCE.call_once(|| {
        eprintln!(
            "chaos enabled: seed {} (replay with --chaos-seed {})",
            cfg.seed, cfg.seed
        );
    });
    Some(cfg)
}

/// [`chaos_config`], defaulting to disabled: the form testbed config
/// literals splice in directly.
#[must_use]
pub fn chaos_or_disabled() -> ChaosConfig {
    chaos_config().unwrap_or_else(ChaosConfig::disabled)
}

/// The executor worker count: [`with_shards`]'s override on this
/// thread, else `--jobs` (or its alias `--shards`), defaulting to 1.
#[must_use]
pub fn jobs() -> usize {
    JOBS_OVERRIDE
        .with(std::cell::Cell::get)
        .or_else(|| RunOpts::get().map(|opts| opts.jobs))
        .unwrap_or(1)
}

/// Parses an on/off switch value (`on`, `true`, `1` / `off`, `false`,
/// `0`).
fn parse_switch(v: &str) -> Option<bool> {
    match v {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

thread_local! {
    static JOBS_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    /// `(huge_pages, prefetch_depth, tier_mib)` forced by
    /// [`with_mem_features`] on this thread.
    static MEM_FEATURES_OVERRIDE: std::cell::Cell<Option<(bool, u32, Option<u64>)>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `body` with [`huge_pages`], [`prefetch_depth`], and
/// [`tier_mib`] forced on this thread — `enginebench` uses this to run
/// the same figure with and without the memory features inside one
/// process (the ablation cells).
pub fn with_mem_features<R>(
    huge: bool,
    prefetch: u32,
    tier_mib_override: Option<u64>,
    body: impl FnOnce() -> R,
) -> R {
    let prev = MEM_FEATURES_OVERRIDE.with(|c| c.replace(Some((huge, prefetch, tier_mib_override))));
    let out = body();
    MEM_FEATURES_OVERRIDE.with(|c| c.set(prev));
    out
}

/// `--hugepages on`: whether 2 MiB huge-page folding is enabled.
/// Defaults to off, so existing figures stay byte-identical.
#[must_use]
pub fn huge_pages() -> bool {
    if let Some((huge, _, _)) = MEM_FEATURES_OVERRIDE.with(std::cell::Cell::get) {
        return huge;
    }
    if let Some(opts) = RunOpts::get() {
        return opts.huge_pages;
    }
    flag_value(std::env::args().skip(1), "hugepages")
        .and_then(|v| parse_switch(&v.to_string_lossy()))
        .unwrap_or(false)
}

/// `--prefetch <depth>`: the speculative NPF prefetch depth in pages.
/// Defaults to 0 (disabled).
#[must_use]
pub fn prefetch_depth() -> u32 {
    if let Some((_, depth, _)) = MEM_FEATURES_OVERRIDE.with(std::cell::Cell::get) {
        return depth;
    }
    if let Some(opts) = RunOpts::get() {
        return opts.prefetch;
    }
    flag_value(std::env::args().skip(1), "prefetch")
        .and_then(|v| v.to_string_lossy().parse::<u32>().ok())
        .unwrap_or(0)
}

/// `--tier <mib>`: the NVM backing-tier capacity in MiB, if tiering is
/// enabled.
#[must_use]
pub fn tier_mib() -> Option<u64> {
    if let Some((_, _, tier)) = MEM_FEATURES_OVERRIDE.with(std::cell::Cell::get) {
        return tier.filter(|&mib| mib > 0);
    }
    if let Some(opts) = RunOpts::get() {
        return opts.tier_mib;
    }
    flag_value(std::env::args().skip(1), "tier")
        .and_then(|v| v.to_string_lossy().parse::<u64>().ok())
        .filter(|&mib| mib > 0)
}

/// The [`NpfConfig`] matching the command line's memory-feature flags:
/// defaults plus `--hugepages` and `--prefetch`. Experiment drivers
/// build on this (e.g. `.with_backend(...)`) so every binary honors
/// the flags uniformly.
#[must_use]
pub fn npf_config() -> NpfConfig {
    NpfConfig::default()
        .with_huge_pages(huge_pages())
        .with_prefetch_depth(prefetch_depth())
}

/// The [`TierConfig`] requested with `--tier <mib>`, if any: an
/// Optane-class NVM device of that capacity in front of the swap disk.
#[must_use]
pub fn tier_config() -> Option<TierConfig> {
    tier_mib().map(|mib| TierConfig {
        capacity: ByteSize::mib(mib),
        disk: DiskConfig::nvm(),
    })
}

/// The [`FabricProfile`] matching the command line's lossy-fabric
/// flags: lossless by default, `--loss <p>` for random loss, `--pfc on`
/// for 802.1Qbb flow control, `--ecn on` for marking at the default
/// queueing-delay threshold. The lenient fallback (test contexts) scans
/// argv the same way the strict parser does.
#[must_use]
pub fn fabric_profile() -> FabricProfile {
    let (loss, pfc, ecn) = match RunOpts::get() {
        Some(opts) => (opts.loss, opts.pfc, opts.ecn),
        None => {
            let loss = flag_value(std::env::args().skip(1), "loss")
                .and_then(|v| v.to_string_lossy().parse::<f64>().ok())
                .unwrap_or(0.0);
            let pfc = flag_value(std::env::args().skip(1), "pfc")
                .and_then(|v| parse_switch(&v.to_string_lossy()))
                .unwrap_or(false);
            let ecn = flag_value(std::env::args().skip(1), "ecn")
                .and_then(|v| parse_switch(&v.to_string_lossy()))
                .unwrap_or(false);
            (loss, pfc, ecn)
        }
    };
    let mut profile = FabricProfile::default().with_loss(loss).with_pfc(pfc);
    if ecn {
        profile = profile.with_ecn(Some(simcore::time::SimDuration::from_micros(20)));
    }
    profile
}

/// The [`TransportConfig`] matching `--transport <gbn|irn>`: the
/// default BDP cap with the requested discipline.
#[must_use]
pub fn transport_config() -> TransportConfig {
    let transport = match RunOpts::get() {
        Some(opts) => opts.transport,
        None => flag_value(std::env::args().skip(1), "transport")
            .and_then(|v| RdmaTransport::from_name(&v.to_string_lossy()))
            .unwrap_or_default(),
    };
    TransportConfig::default().with_transport(transport)
}

/// Runs `body` with [`jobs`] forced to `n` on this thread —
/// `enginebench` uses this to time the same figure at several worker
/// counts inside one process.
pub fn with_shards<R>(n: usize, body: impl FnOnce() -> R) -> R {
    let prev = JOBS_OVERRIDE.with(|c| c.replace(Some(n)));
    let out = body();
    JOBS_OVERRIDE.with(|c| c.set(prev));
    out
}

/// Builds the [`simcore::shard::IsolationSpec`] matching whatever
/// instrumentation is installed on the **current** thread, so a pool
/// reproduces the caller's environment per task: recording when the
/// caller records, checking under the caller's chaos seed, journaling
/// (with the caller's watchdog) when the caller journals. Each task
/// runs under fresh instruments built from this spec; the pool absorbs
/// them back into the caller's in task order.
#[must_use]
pub fn isolation_spec() -> simcore::shard::IsolationSpec {
    simcore::shard::IsolationSpec {
        record: trace::enabled(),
        ring_capacity: DEFAULT_CAPACITY,
        chaos_seed: invariant::with(|c| c.seed()),
        journal: journal::enabled(),
        watchdog: journal::enabled()
            .then(|| {
                let mut w = None;
                journal::with(|j| w = j.watchdog());
                w
            })
            .flatten(),
    }
}

fn write_or_warn(path: &Path, what: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => eprintln!("failed to write {what} to {}: {e}", path.display()),
    }
}

/// Runs `body` with tracing installed when `--trace`/`--metrics` are
/// present in argv, exporting the requested files afterwards. Without
/// either flag this is a plain call to `body` (tracing stays disabled,
/// so instrumentation costs one branch per site).
///
/// When `--chaos-seed`/`--chaos-profile` are present, also installs a
/// global [`InvariantChecker`] around `body`: a violation prints the
/// failing seed (plus the trace ring, when recording) and the process
/// exits nonzero, so chaos-enabled experiment runs are CI-able.
pub fn run<R>(body: impl FnOnce() -> R) -> R {
    let chaos = chaos_config();
    if let Some(cfg) = chaos {
        assert!(
            invariant::install(InvariantChecker::new(cfg.seed)).is_none(),
            "an invariant checker was already installed"
        );
    }
    let trace_to = trace_path();
    let metrics_to = metrics_path();
    let journal_to = journal_path();
    if trace_to.is_none() && metrics_to.is_none() && journal_to.is_none() {
        let out = body();
        if finish_chaos(chaos) {
            std::process::exit(1);
        }
        return out;
    }
    let record = trace_to.is_some() || metrics_to.is_some();
    let prev = if record {
        trace::install(TraceRecorder::new(DEFAULT_CAPACITY))
    } else {
        None
    };
    if journal_to.is_some() {
        assert!(
            journal::install(JournalRecorder::new()).is_none(),
            "a fault journal was already installed"
        );
    }
    let out = body();
    // Settle chaos while the recorder is still installed, so a
    // violation discovered by `finish()` can dump the trace ring.
    let violated = finish_chaos(chaos);
    let journal_rec = journal_to
        .is_some()
        .then(|| journal::uninstall().expect("journal installed above"));
    if record {
        let recorder = trace::uninstall().expect("recorder installed above");
        if let Some(prev) = prev {
            trace::install(prev);
        }
        if let Some(path) = trace_to {
            if recorder.dropped() > 0 {
                eprintln!(
                    "trace ring wrapped: {} oldest records dropped",
                    recorder.dropped()
                );
            }
            write_or_warn(&path, "chrome trace", &recorder.export_chrome_json());
        }
        if let Some(path) = metrics_to {
            let is_csv = path.extension().is_some_and(|e| e == "csv");
            let contents = if is_csv {
                recorder.metrics().to_csv()
            } else {
                recorder.metrics().to_json()
            };
            write_or_warn(&path, "metrics", &contents);
        }
    }
    if let (Some(path), Some(j)) = (journal_to.as_deref(), journal_rec.as_ref()) {
        finish_journal(j, path, violated);
    }
    if violated {
        std::process::exit(1);
    }
    out
}

/// Settles a captured fault journal: prints any SLO-watchdog hits,
/// dumps the attribution report on a chaos violation (the journal is
/// the "why was this fault slow" companion to the trace-ring dump),
/// and writes the requested export — attribution text for `.txt`
/// paths, Chrome flow-event JSON otherwise.
fn finish_journal(j: &JournalRecorder, path: &Path, violated: bool) {
    if !j.slo_hits().is_empty() {
        eprint!("{}", j.slo_report());
    }
    if violated {
        eprint!("{}", j.attribution_report());
    }
    let contents = if path.extension().is_some_and(|e| e == "txt") {
        j.attribution_report()
    } else {
        j.export_chrome_json()
    };
    write_or_warn(path, "fault journal", &contents);
}

/// Uninstalls the chaos invariant checker (when one was installed) —
/// by now it has absorbed every pool task's checker — and prints the
/// end-of-run verdict. Returns `true` when any invariant was violated.
///
/// Experiments stop at a wall-clock horizon, not at quiescence, so
/// in-flight NPFs at the cut are expected — report them as context,
/// not as `finish()`'s liveness violation (the sweep tests, which do
/// hunt a quiescent cut, assert that predicate instead).
fn finish_chaos(chaos: Option<ChaosConfig>) -> bool {
    let Some(cfg) = chaos else {
        return false;
    };
    let checker = invariant::uninstall().expect("checker installed by run()");
    let outstanding = checker.outstanding_faults();
    if outstanding > 0 {
        eprintln!(
            "chaos seed {}: {outstanding} NPFs still in flight at the horizon",
            cfg.seed
        );
    }
    let violations = checker.violations().len();
    if violations > 0 {
        eprintln!(
            "chaos seed {}: {violations} invariant violation(s) — replay with --chaos-seed {}",
            cfg.seed, cfg.seed
        );
        return true;
    }
    eprintln!(
        "chaos seed {}: no invariant violations ({} checks)",
        cfg.seed,
        checker.checks()
    );
    false
}

/// Runs a binary's experiment points on the executor with everything
/// argv asks for — `--jobs` workers, per-task chaos checkers, trace
/// recorders and journals absorbed into the ones [`run`] installs —
/// then hands the reports (in task order) to `emit` for printing and
/// settles exactly like [`run`]: stdout first, chaos verdict on
/// stderr, trace/metrics/journal files, then a nonzero exit on
/// violation.
///
/// The absorb is in task order, so a binary's stdout and exported
/// files are byte-identical at every `--jobs` value.
pub fn run_tasks(tasks: Vec<Task<'static, crate::Report>>, emit: impl FnOnce(Vec<crate::Report>)) {
    run(|| {
        emit(simcore::shard::run_isolated(
            tasks,
            jobs(),
            isolation_spec(),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_space_and_equals_forms() {
        assert_eq!(
            flag_value(argv(&["--trace", "/tmp/t.json"]), "trace"),
            Some(PathBuf::from("/tmp/t.json"))
        );
        assert_eq!(
            flag_value(argv(&["--trace=/tmp/t.json"]), "trace"),
            Some(PathBuf::from("/tmp/t.json"))
        );
        assert_eq!(flag_value(argv(&["--other", "x"]), "trace"), None);
        assert_eq!(flag_value(argv(&["--trace"]), "trace"), None);
    }

    #[test]
    fn parses_chaos_flags() {
        assert_eq!(chaos_from_args(argv(&["--foo", "1"])), None);
        let cfg = chaos_from_args(argv(&["--chaos-seed", "42"])).expect("enabled");
        assert_eq!(cfg.seed, 42);
        assert!(cfg.enabled());
        let cfg =
            chaos_from_args(argv(&["--chaos-seed=7", "--chaos-profile=network"])).expect("enabled");
        assert_eq!(cfg.seed, 7);
        assert!(cfg.net.active());
        assert!(!cfg.interrupt.active());
        let cfg = chaos_from_args(argv(&["--chaos-profile", "irq"])).expect("enabled");
        assert!(cfg.interrupt.active());
        assert_eq!(cfg.seed, 0);
    }

    #[test]
    #[should_panic(expected = "unknown --chaos-profile")]
    fn rejects_unknown_profile() {
        let _ = chaos_from_args(argv(&["--chaos-profile", "gremlins"]));
    }

    #[test]
    fn runopts_parses_standard_flags() {
        let opts = RunOpts::parse(
            &argv(&[
                "--trace=/tmp/t.json",
                "--metrics",
                "/tmp/m.csv",
                "--tenants",
                "256",
                "--arbiter=wfq",
                "--quota=64",
                "--backend=softemu",
                "--chaos-seed",
                "9",
                "--hugepages=on",
                "--prefetch=16",
                "--tier",
                "2048",
            ]),
            &[],
        )
        .expect("all standard flags");
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(opts.metrics, Some(PathBuf::from("/tmp/m.csv")));
        assert_eq!(opts.tenants, Some(256));
        assert_eq!(opts.arbiter, Some(ArbiterPolicy::WeightedFair));
        assert_eq!(opts.quota, Some(64));
        assert_eq!(opts.backend, Some(BackendKind::SoftEmu));
        assert_eq!(opts.chaos.expect("chaos on").seed, 9);
        assert!(opts.huge_pages);
        assert_eq!(opts.prefetch, 16);
        assert_eq!(opts.tier_mib, Some(2048));
    }

    #[test]
    fn shards_is_an_alias_of_jobs_and_the_larger_wins() {
        let jobs = |args: &[&str]| RunOpts::parse(&argv(args), &[]).expect("worker flags").jobs;
        assert_eq!(jobs(&["--jobs=4"]), 4);
        assert_eq!(jobs(&["--shards", "4"]), 4);
        assert_eq!(jobs(&["--jobs=4", "--shards=2"]), 4);
        assert_eq!(jobs(&["--jobs=1", "--shards=3"]), 3);
        let bad = RunOpts::parse(&argv(&["--shards", "many"]), &[]).unwrap_err();
        assert!(bad.contains("--shards must be an integer"), "{bad}");
    }

    #[test]
    fn mem_feature_flags_default_off_and_reject_junk() {
        let opts = RunOpts::parse(&[], &[]).expect("empty argv");
        assert!(!opts.huge_pages);
        assert_eq!(opts.prefetch, 0);
        assert_eq!(opts.tier_mib, None);
        // `--tier 0` means "no tier", same as absent.
        let opts = RunOpts::parse(&argv(&["--tier", "0"]), &[]).expect("tier 0");
        assert_eq!(opts.tier_mib, None);
        let bad = RunOpts::parse(&argv(&["--hugepages", "maybe"]), &[]).unwrap_err();
        assert!(bad.contains("--hugepages"), "{bad}");
        let bad = RunOpts::parse(&argv(&["--prefetch", "lots"]), &[]).unwrap_err();
        assert!(bad.contains("--prefetch must be an integer"), "{bad}");
    }

    #[test]
    fn mem_feature_overrides_scope_to_the_closure() {
        assert!(!huge_pages());
        assert_eq!(prefetch_depth(), 0);
        assert_eq!(tier_mib(), None);
        with_mem_features(true, 32, Some(1024), || {
            assert!(huge_pages());
            assert_eq!(prefetch_depth(), 32);
            assert_eq!(tier_mib(), Some(1024));
            let npf = npf_config();
            assert!(npf.huge_pages);
            assert_eq!(npf.prefetch_depth, 32);
            let tier = tier_config().expect("tier on");
            assert_eq!(tier.capacity, ByteSize::mib(1024));
        });
        assert!(!huge_pages());
        assert!(tier_config().is_none());
    }

    #[test]
    fn transport_flags_parse_and_validate() {
        let opts = RunOpts::parse(
            &argv(&["--transport", "irn", "--loss=0.01", "--ecn=on"]),
            &[],
        )
        .expect("lossy transport flags");
        assert_eq!(opts.transport, RdmaTransport::SelectiveRepeat);
        assert!((opts.loss - 0.01).abs() < 1e-12);
        assert!(opts.ecn);
        assert!(!opts.pfc);

        let opts = RunOpts::parse(&argv(&["--pfc", "on"]), &[]).expect("pfc alone");
        assert!(opts.pfc);
        assert_eq!(opts.transport, RdmaTransport::GoBackN);

        let bad = RunOpts::parse(&argv(&["--transport", "tcp"]), &[]).unwrap_err();
        assert!(bad.contains("--transport must be gbn|irn"), "{bad}");
        let bad = RunOpts::parse(&argv(&["--loss", "1.5"]), &[]).unwrap_err();
        assert!(bad.contains("--loss must be in [0, 1)"), "{bad}");
        let bad = RunOpts::parse(&argv(&["--pfc=on", "--loss=0.01"]), &[]).unwrap_err();
        assert!(bad.contains("cannot be combined"), "{bad}");
    }

    #[test]
    fn transport_defaults_reproduce_the_legacy_fabric() {
        let opts = RunOpts::parse(&[], &[]).expect("empty argv");
        assert_eq!(opts.transport, RdmaTransport::GoBackN);
        assert_eq!(opts.loss, 0.0);
        assert!(!opts.pfc);
        assert!(!opts.ecn);
        // The accessor view: a transparent profile and a GBN transport.
        assert!(fabric_profile().is_lossless_default());
        assert_eq!(transport_config().transport, RdmaTransport::GoBackN);
    }

    #[test]
    fn runopts_defaults_when_argv_is_empty() {
        let opts = RunOpts::parse(&[], &[]).expect("empty argv is fine");
        assert_eq!(opts.trace, None);
        assert_eq!(opts.metrics, None);
        assert!(opts.chaos.is_none());
        assert!(!opts.chaos_or_disabled().enabled());
        assert_eq!(opts.jobs, 1);
        assert_eq!(opts.tenants, None);
        assert_eq!(opts.arbiter, None);
        assert_eq!(opts.quota, None);
        assert_eq!(opts.backend, None);
        assert_eq!(opts.extra("out"), None);
    }

    #[test]
    fn runopts_rejects_malformed_command_lines() {
        let unknown = RunOpts::parse(&argv(&["--frobnicate", "1"]), &[]).unwrap_err();
        assert!(unknown.contains("unknown flag --frobnicate"), "{unknown}");
        let positional = RunOpts::parse(&argv(&["stray"]), &[]).unwrap_err();
        assert!(positional.contains("unexpected argument"), "{positional}");
        let missing = RunOpts::parse(&argv(&["--jobs"]), &[]).unwrap_err();
        assert!(missing.contains("--jobs requires a value"), "{missing}");
        let twice = RunOpts::parse(&argv(&["--jobs", "1", "--jobs=2"]), &[]).unwrap_err();
        assert!(twice.contains("more than once"), "{twice}");
        let bad_policy = RunOpts::parse(&argv(&["--arbiter", "lottery"]), &[]).unwrap_err();
        assert!(bad_policy.contains("--arbiter"), "{bad_policy}");
        let bad_backend = RunOpts::parse(&argv(&["--backend", "quantum"]), &[]).unwrap_err();
        assert!(bad_backend.contains("--backend"), "{bad_backend}");
        let bad_int = RunOpts::parse(&argv(&["--tenants", "many"]), &[]).unwrap_err();
        assert!(
            bad_int.contains("--tenants must be an integer"),
            "{bad_int}"
        );
    }

    #[test]
    fn runopts_accepts_registered_extras_only() {
        let opts = RunOpts::parse(
            &argv(&["--out", "B.json", "--check=old.json"]),
            &["out", "check"],
        )
        .expect("registered extras");
        assert_eq!(opts.extra("out"), Some("B.json"));
        assert_eq!(opts.extra("check"), Some("old.json"));
        assert_eq!(opts.extra("other"), None);
        let err = RunOpts::parse(&argv(&["--out", "B.json"]), &[]).unwrap_err();
        assert!(err.contains("unknown flag --out"), "{err}");
    }

    #[test]
    fn run_without_flags_leaves_tracing_disabled() {
        let r = run(|| {
            assert!(!trace::enabled());
            7
        });
        assert_eq!(r, 7);
    }
}
