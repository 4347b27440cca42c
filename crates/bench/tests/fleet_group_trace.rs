//! `FleetStrategyRow::group_trace_events` counts every consumer-group
//! trace event of the run, however long the churn script.

use bench::exec;
use bench::figures::Effort;
use kafkasim::fleet::{Assignor, ChurnAction, GroupCoordinator, PartitionStrategy};
use spec::{FleetPopulationEntry, FleetSpec, GroupChurnSpec};

/// 300 churn steps over 40 consumers emit about 12 500 events, more than
/// the 8 192-slot ring the executor once counted out of, which dropped the
/// oldest silently. The expected count replays the script on a
/// `GroupCoordinator`: one assignment per initial member, then per step a
/// join/leave event plus one assignment per member if the group changed.
#[test]
fn long_churn_scripts_are_counted_in_full() {
    let consumers = 40;
    // Member 40 joins and leaves in turn.
    let churn: Vec<GroupChurnSpec> = (0..300u64)
        .map(|i| GroupChurnSpec {
            at_s: i + 1,
            action: if i % 2 == 0 {
                ChurnAction::Join
            } else {
                ChurnAction::Leave
            },
            member: consumers,
        })
        .collect();
    let spec = FleetSpec {
        producers: 10,
        partitions: 64,
        partitioners: vec![PartitionStrategy::RoundRobin, PartitionStrategy::KeyHash],
        population: vec![FleetPopulationEntry {
            class: "web-access-records".into(),
            weight: 1.0,
            rate_hz: 0.5,
        }],
        consumers,
        assignor: Assignor::Sticky,
        churn: churn.clone(),
        duration_s: 302,
        window_ms: 151_000,
        partition_capacity_hz: 60.0,
        base_loss: 0.0,
        rebalance_pause_ms: 500,
        threads: None,
    };

    let initial: Vec<u32> = (0..consumers).collect();
    let mut group = GroupCoordinator::new(spec.assignor, spec.partitions, &initial);
    let mut want = group.members().len() as u64;
    for step in &churn {
        let rebalance = match step.action {
            ChurnAction::Join => group.join(step.member),
            ChurnAction::Leave => group.leave(step.member),
        };
        want += 1 + rebalance.map_or(0, |r| r.assignments.len() as u64);
    }
    assert!(want > 8_192, "the script must outgrow the old ring: {want}");

    let effort = Effort {
        messages: 0,
        threads: 1,
        seed: 42,
        grid_planner: false,
    };
    for row in exec::fleet(&spec, effort) {
        assert_eq!(row.group_trace_events, want, "{}", row.strategy);
    }
}
