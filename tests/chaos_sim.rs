//! Chaos-failover fencing: a partitioned stale primary keeps serving
//! repairs after a new term is elected, and every receiver rejects them.
//!
//! The script lives in `support/fenced_stale_primary.rs` (the forensics
//! golden test pins its reports too). The collected trace must show the
//! fenced reject and **zero** duplicate-authority anomalies — the stale
//! serve existed, but no receiver accepted it.

#[path = "support/fenced_stale_primary.rs"]
mod fenced_stale_primary;

use fenced_stale_primary::OLD_PRIMARY;
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig};

#[test]
fn partitioned_stale_primary_is_fenced_by_receivers() {
    let records = fenced_stale_primary::capture();

    // Forensics over the whole trace: the stale serve happened, the
    // fence caught it, and no receiver accepted duplicate authority.
    let stale_serves = records
        .iter()
        .filter(|r| {
            r.host == OLD_PRIMARY
                && matches!(
                    r.event,
                    lbrm_core::trace::ProtocolEvent::AuthorityServe { term: 0, .. }
                )
        })
        .count();
    assert!(stale_serves >= 1, "the deposed primary must have served");
    let report = analyze(&records, &AnalyzeConfig::default());
    assert!(
        report.fenced_rejects >= 1,
        "the forensics must count the fenced reject"
    );
    let double_authority: Vec<_> = report
        .anomalies
        .iter()
        .filter(|a| matches!(a.kind(), "split_brain_serve" | "term_conflict"))
        .collect();
    assert!(
        double_authority.is_empty(),
        "no duplicate-authority serve may be accepted: {double_authority:?}"
    );
}
