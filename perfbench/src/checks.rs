//! Output checks: a report fingerprint and the invariants every report
//! must keep.

use std::hash::Hasher;

use hs_cluster::SimReport;
use rustc_hash::FxHasher;

/// Fold every observable report field, floats by bit pattern, into one
/// 64-bit value. The fold is the one the `scale_1m` bench uses, so equal
/// fingerprints mean bit-identical reports.
pub fn fingerprint(r: &SimReport) -> u64 {
    let mut h = FxHasher::default();
    fold(&mut h, r);
    h.finish()
}

/// Fold `r` into `h`, so several reports can share one fingerprint.
pub fn fold(h: &mut FxHasher, r: &SimReport) {
    let f = |h: &mut FxHasher, x: f64| h.write_u64(x.to_bits());
    h.write(r.strategy.as_bytes());
    f(h, r.offered_rate);
    h.write_usize(r.arrived);
    h.write_usize(r.completed);
    f(h, r.sla_attainment);
    f(h, r.mean_ttft_s);
    f(h, r.mean_tpot_s);
    for m in &r.per_request {
        h.write_u64(m.id);
        f(h, m.ttft_s.unwrap_or(f64::NAN));
        f(h, m.ttft_e2e_s.unwrap_or(f64::NAN));
        f(h, m.tpot_s.unwrap_or(f64::NAN));
        h.write_u8(u8::from(m.completed));
        h.write_u8(u8::from(m.sla_ok));
    }
    for s in &r.mem_series {
        h.write_u64(s.t.as_nanos());
        f(h, s.mean_util);
        f(h, s.max_util);
    }
    for v in [
        r.ina_ops,
        r.ring_ops,
        r.ina_fallbacks,
        r.ina_failovers,
        r.ina_release_underflows,
        r.aborted_flows,
        r.flow_retries,
        r.kv_transfers,
        r.kv_stripes,
        r.kv_retries,
        r.kv_deferrals,
    ] {
        h.write_u64(v);
    }
    for v in [
        r.eth_bytes,
        r.nvlink_bytes,
        r.goodput_rps,
        r.mean_reroute_s,
        r.kv_bytes,
        r.mean_kv_transfer_s,
        r.mean_kv_est_err_s,
    ] {
        f(h, v);
    }
}

/// Check one report's invariants; the error names the first violation.
pub fn check_report(r: &SimReport) -> Result<(), String> {
    if r.completed > r.arrived {
        return Err(format!(
            "{}: completed {} > arrived {}",
            r.strategy, r.completed, r.arrived
        ));
    }
    if r.ina_release_underflows != 0 {
        return Err(format!(
            "{}: {} INA slot release underflows",
            r.strategy, r.ina_release_underflows
        ));
    }
    for m in r.per_request.iter().filter(|m| m.completed) {
        match (m.ttft_s, m.ttft_e2e_s) {
            (Some(t), Some(e)) if t <= e => {}
            (t, e) => {
                return Err(format!(
                    "{}: request {} completed with ttft {t:?} and ttft_e2e {e:?}",
                    r.strategy, m.id
                ))
            }
        }
    }
    Ok(())
}
