//! Group-quality staging: one engine row per group, constraint (6)
//! charged once.
//!
//! The per-slot allocator ([`cvr_core::engine::SlotEngine`] driven by the
//! quality-increment greedy) sees one pseudo-user per *group*. For a
//! singleton group the staged row is byte-for-byte the member's unicast
//! row — rates, values, and link budget — so a session where every group
//! has one member solves the exact unicast problem and the Theorem-1
//! parity suite keeps meaning what it says. For a larger group:
//!
//! * the **rates** are the shared undelivered sums (identical across
//!   members by [`GroupKey`](crate::group::GroupKey) construction),
//!   staged once — this is what makes constraint (6) charge a shared
//!   tile once instead of N times;
//! * the **value** at level `l` is `Σ_m value_m[min(l, cap_m)]` where
//!   `cap_m` is the highest level member `m`'s own link budget `B_n`
//!   affords ([`cap_level`]): a member whose link saturates stops
//!   contributing marginal gain above its cap, exactly the clamped
//!   group-value of the multi-quality multicast formulation;
//! * the **link budget** is the max member budget — per-member limits are
//!   already folded into the value clamp, and the transmit path clamps
//!   each member's delivered quality to `min(assigned, cap_m)`.

use cvr_core::engine::SlotEngine;
use cvr_core::objective::RATE_EPS;
use cvr_core::stage::accumulate_group_values;

/// One group member's staging inputs: its per-level objective values
/// (computed exactly as the unicast build would) and its link budget.
#[derive(Debug, Clone, Copy)]
pub struct GroupMember<'a> {
    /// Per-level objective values, `levels` entries.
    pub values: &'a [f64],
    /// The member's link budget `B_n` in Mbps.
    pub link_budget: f64,
}

/// The highest level index whose rate fits within `link_budget` (with the
/// shared [`RATE_EPS`] feasibility tolerance), at least 0 — level 0 is
/// the baseline every user is granted, mirroring the greedy's baseline
/// assignment.
pub fn cap_level(rates: &[f64], link_budget: f64) -> usize {
    let mut cap = 0;
    for (l, &rate) in rates.iter().enumerate().skip(1) {
        if rate <= link_budget + RATE_EPS {
            cap = l;
        } else {
            break;
        }
    }
    cap
}

/// Stages one group into `engine` and appends each member's `cap_level`
/// to `caps_out` (a singleton member is never clamped: its cap is the top
/// level). Returns the staged pseudo-user index.
///
/// `shared_rates` must be the strictly-increasing positive per-level rate
/// row shared by every member (undelivered sums plus control overhead,
/// sanitized), and each member's `values` row must have the same length.
///
/// # Panics
///
/// Panics if `members` is empty or a member's value row length differs
/// from `shared_rates`.
pub fn stage_group(
    engine: &mut SlotEngine,
    shared_rates: &[f64],
    members: &[GroupMember<'_>],
    caps_out: &mut Vec<usize>,
) -> usize {
    assert!(!members.is_empty(), "a group needs at least one member");
    let levels = shared_rates.len();
    let index = engine.num_users();
    if let [only] = members {
        // Unicast parity: stage exactly the member's own row. Any
        // clamping or re-summation here would perturb the greedy's
        // marginal signs and change *other* users' assignments.
        assert_eq!(only.values.len(), levels, "value row length mismatch");
        let tables = engine.add_user(levels, only.link_budget);
        tables.rates.copy_from_slice(shared_rates);
        tables.values.copy_from_slice(only.values);
        caps_out.push(levels - 1);
        return index;
    }
    let link = members
        .iter()
        .map(|m| m.link_budget)
        .fold(f64::NEG_INFINITY, f64::max);
    let tables = engine.add_user(levels, link);
    tables.rates.copy_from_slice(shared_rates);
    for member in members {
        assert_eq!(member.values.len(), levels, "value row length mismatch");
        let cap = cap_level(shared_rates, member.link_budget);
        caps_out.push(cap);
        // `values[l] += member.values[min(l, cap)]`, as a contiguous
        // vectorisable prefix plus a clamped constant tail.
        accumulate_group_values(member.values, cap, tables.values);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::alloc::Allocator as _;
    use cvr_core::alloc::DensityValueGreedy;
    use cvr_core::quality::QualityLevel;

    const RATES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

    fn values(scale: f64) -> [f64; 4] {
        [1.0 * scale, 2.0 * scale, 3.0 * scale, 4.0 * scale]
    }

    #[test]
    fn cap_level_respects_link_budget_with_eps() {
        assert_eq!(cap_level(&RATES, 8.0), 3);
        assert_eq!(cap_level(&RATES, 8.0 - 10.0 * RATE_EPS), 2);
        assert_eq!(cap_level(&RATES, 4.0 + 0.5 * RATE_EPS), 2);
        assert_eq!(cap_level(&RATES, 0.5), 0, "baseline level is always on");
    }

    #[test]
    fn singleton_staging_is_bit_identical_to_unicast() {
        let vals = values(1.0);
        let mut unicast = SlotEngine::new();
        unicast.begin_slot(10.0);
        let t = unicast.add_user(4, 6.0);
        t.rates.copy_from_slice(&RATES);
        t.values.copy_from_slice(&vals);

        let mut grouped = SlotEngine::new();
        grouped.begin_slot(10.0);
        let mut caps = Vec::new();
        stage_group(
            &mut grouped,
            &RATES,
            &[GroupMember {
                values: &vals,
                link_budget: 6.0,
            }],
            &mut caps,
        );
        assert_eq!(caps, vec![3]);
        assert_eq!(unicast.rates(0), grouped.rates(0));
        assert_eq!(unicast.values(0), grouped.values(0));
        assert_eq!(unicast.link_budget(0), grouped.link_budget(0));
        let mut alloc = DensityValueGreedy;
        let a = alloc.allocate(&mut unicast).to_vec();
        let b = alloc.allocate(&mut grouped).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn group_value_is_clamped_member_sum() {
        let va = values(1.0);
        let vb = values(2.0);
        let mut engine = SlotEngine::new();
        engine.begin_slot(100.0);
        let mut caps = Vec::new();
        stage_group(
            &mut engine,
            &RATES,
            &[
                GroupMember {
                    values: &va,
                    link_budget: 8.0,
                },
                GroupMember {
                    values: &vb,
                    link_budget: 2.5, // caps member b at level index 1
                },
            ],
            &mut caps,
        );
        assert_eq!(caps, vec![3, 1]);
        assert_eq!(engine.link_budget(0), 8.0);
        // value[l] = va[l] + vb[min(l, 1)]
        assert_eq!(engine.values(0), &[3.0, 6.0, 7.0, 8.0]);
        assert_eq!(engine.rates(0), &RATES);
    }

    #[test]
    fn grouping_charges_constraint_6_once_and_unlocks_higher_quality() {
        // Two identical users, server budget 8: unicast stages two rows,
        // each charged separately, so the best both can reach is level 2
        // (4 + 4 = 8). Grouped, the shared row is charged once and the
        // group tops out (rate 8 = budget).
        let vals = values(1.0);
        let mut alloc = DensityValueGreedy;

        let mut unicast = SlotEngine::new();
        unicast.begin_slot(8.0);
        for _ in 0..2 {
            let t = unicast.add_user(4, 50.0);
            t.rates.copy_from_slice(&RATES);
            t.values.copy_from_slice(&vals);
        }
        let solo: Vec<QualityLevel> = alloc.allocate(&mut unicast).to_vec();
        assert!(solo.iter().all(|q| q.index() <= 2));

        let mut grouped = SlotEngine::new();
        grouped.begin_slot(8.0);
        let mut caps = Vec::new();
        stage_group(
            &mut grouped,
            &RATES,
            &[
                GroupMember {
                    values: &vals,
                    link_budget: 50.0,
                },
                GroupMember {
                    values: &vals,
                    link_budget: 50.0,
                },
            ],
            &mut caps,
        );
        let assigned = alloc.allocate(&mut grouped).to_vec();
        assert_eq!(assigned[0].index(), 3, "shared row charged once tops out");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_panics() {
        let mut engine = SlotEngine::new();
        engine.begin_slot(1.0);
        stage_group(&mut engine, &RATES, &[], &mut Vec::new());
    }
}
