//! Flow-level max-min fair bandwidth allocation (progressive filling).
//!
//! The simulated network is a star: every node's NIC is a capacity
//! constraint (independently per direction), the switch core is an optional
//! aggregate constraint, and external services contribute an aggregate
//! constraint plus an optional per-flow cap. A flow is a set of constraint
//! memberships; rates are assigned by progressive filling, the textbook
//! algorithm for max-min fairness: raise all rates uniformly, freeze flows
//! when a constraint they traverse saturates, repeat.
//!
//! [`NetFairWorkspace::compute`] fills over the *live* constraints only:
//! those with an unfrozen member flow. Most of a large cluster's
//! constraints carry no flow at any instant, so an iteration costs
//! O(live constraints + unfrozen flows) rather than O(all constraints +
//! all flows), with rates bit-identical to the naive fill over everything
//! (the oracle in [`crate::reference`]).

/// Rate assigned to a flow that traverses no finite constraint (bytes/s).
/// Kept finite so completion times remain computable.
pub const UNCONSTRAINED_BPS: f64 = 1.0e15;

/// One capacity constraint (a NIC direction, the switch core, an external
/// service). Capacity may be `f64::INFINITY`.
#[derive(Clone, Copy, Debug)]
pub struct Constraint {
    pub capacity: f64,
}

/// A flow's view of the network: the indices of the constraints it
/// traverses, plus an optional private rate cap.
#[derive(Clone, Debug, Default)]
pub struct FlowPath {
    pub constraints: Vec<usize>,
    pub rate_cap: Option<f64>,
}

/// Reusable scratch state for the max-min fill. The engine runs one fill
/// per IO-set change and holds the workspace across them, so the
/// progressive-filling loop is allocation-free.
///
/// A cluster's constraint vector is long (four per node plus the switch
/// and the external services: 511 on the 128-worker Table 2 rung), but a
/// fill touches only the constraints some flow traverses, and each
/// iteration only those that still have an unfrozen member. So the
/// workspace keeps the *live* constraints and the *unfrozen* flows as
/// compact index lists, and between calls it resets only the
/// per-constraint state the previous call touched.
#[derive(Default)]
pub struct NetFairWorkspace {
    rates: Vec<f64>,
    frozen: Vec<bool>,
    caps: Vec<f64>,
    /// Indices of the flows not yet frozen, ascending.
    unfrozen: Vec<usize>,
    /// Per-constraint state, sized to the longest constraint vector seen.
    /// Outside `compute`, `count` is zero and `members` empty everywhere
    /// except at the indices listed in `touched`.
    residual: Vec<f64>,
    count: Vec<usize>,
    members: Vec<Vec<usize>>,
    /// Constraints with at least one member in the last call.
    touched: Vec<usize>,
    /// Touched constraints that still have an unfrozen member.
    live: Vec<usize>,
    newly_frozen: Vec<usize>,
}

impl NetFairWorkspace {
    /// Computes max-min fair rates for `flows` subject to `constraints`
    /// into the workspace's buffers. The returned slice (one rate per
    /// flow) is valid until the next call.
    ///
    /// The rates satisfy: per-constraint sums never exceed capacity;
    /// per-flow caps are honoured; and the allocation is max-min fair (no
    /// flow's rate can be raised without lowering that of a flow with an
    /// equal or smaller rate).
    ///
    /// Every residual and every rate gets the same float operations in the
    /// same order as the naive fill over all constraints (kept as the test
    /// oracle `crate::reference::max_min_rates`); only the minimum search
    /// visits a different order, and `f64::min` does not depend on order.
    /// So the rates are bit-identical to the naive fill's.
    pub fn compute(&mut self, constraints: &[Constraint], flows: &[FlowPath]) -> &[f64] {
        for &c in &self.touched {
            self.count[c] = 0;
            self.members[c].clear();
        }
        self.touched.clear();
        let nf = flows.len();
        self.rates.clear();
        if nf == 0 {
            return &self.rates;
        }

        self.rates.resize(nf, 0.0);
        self.frozen.clear();
        self.frozen.resize(nf, false);
        self.unfrozen.clear();
        self.unfrozen.extend(0..nf);
        // A flow's private cap is modelled as one extra single-flow
        // constraint.
        self.caps.clear();
        self.caps
            .extend(flows.iter().map(|f| f.rate_cap.unwrap_or(f64::INFINITY)));
        if self.count.len() < constraints.len() {
            self.count.resize(constraints.len(), 0);
            self.residual.resize(constraints.len(), 0.0);
            self.members.resize_with(constraints.len(), Vec::new);
        }

        // Residual capacity, unfrozen-member count and member flows of
        // each constraint some flow traverses. The member index makes
        // freezing on saturation O(members) instead of a scan over every
        // flow.
        for (fi, f) in flows.iter().enumerate() {
            for &c in &f.constraints {
                if self.count[c] == 0 {
                    self.touched.push(c);
                    self.residual[c] = constraints[c].capacity;
                }
                self.count[c] += 1;
                self.members[c].push(fi);
            }
        }
        self.live.clear();
        self.live.extend_from_slice(&self.touched);

        let rates = &mut self.rates;
        let frozen = &mut self.frozen;
        let caps = &self.caps;
        let unfrozen = &mut self.unfrozen;
        let residual = &mut self.residual;
        let count = &mut self.count;
        let members = &self.members;
        let live = &mut self.live;
        let newly_frozen = &mut self.newly_frozen;
        while !unfrozen.is_empty() {
            // Smallest uniform increment saturating a constraint or a cap.
            let mut inc = f64::INFINITY;
            for &c in live.iter() {
                if residual[c].is_finite() {
                    inc = inc.min(residual[c] / count[c] as f64);
                }
            }
            for &fi in unfrozen.iter() {
                if caps[fi].is_finite() {
                    inc = inc.min(caps[fi] - rates[fi]);
                }
            }
            if !inc.is_finite() {
                // No binding constraint: remaining flows are unconstrained.
                for &fi in unfrozen.iter() {
                    rates[fi] = UNCONSTRAINED_BPS;
                }
                break;
            }

            // Raise every unfrozen flow by `inc`; charge the constraints.
            for &fi in unfrozen.iter() {
                rates[fi] += inc;
            }
            for &c in live.iter() {
                residual[c] -= inc * count[c] as f64;
            }

            // Freeze flows on saturated constraints or at their private
            // cap. Thresholds are *relative* to the capacity: with
            // capacities in the 1e9 range, the float error of repeated
            // subtraction can exceed any fixed absolute epsilon.
            newly_frozen.clear();
            for &c in live.iter() {
                let capacity = constraints[c].capacity;
                let eps = 1e-6 + capacity.abs() * 1e-9;
                if capacity.is_finite() && residual[c] <= eps {
                    for &fi in &members[c] {
                        if !frozen[fi] {
                            frozen[fi] = true;
                            newly_frozen.push(fi);
                        }
                    }
                }
            }
            for &fi in unfrozen.iter() {
                if !frozen[fi] && caps[fi].is_finite() {
                    let eps = 1e-9 + caps[fi].abs() * 1e-9;
                    if rates[fi] >= caps[fi] - eps {
                        frozen[fi] = true;
                        newly_frozen.push(fi);
                    }
                }
            }
            if newly_frozen.is_empty() {
                // Numeric fallback: the increment was swallowed by
                // rounding. Freeze everything at the current (feasible)
                // rates — this sacrifices at most an epsilon of max-min
                // optimality while guaranteeing termination.
                break;
            }
            for &fi in newly_frozen.iter() {
                for &c in &flows[fi].constraints {
                    count[c] -= 1;
                }
            }
            unfrozen.retain(|&fi| !frozen[fi]);
            live.retain(|&c| count[c] > 0);
        }
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    fn max_min_rates(constraints: &[Constraint], flows: &[FlowPath]) -> Vec<f64> {
        NetFairWorkspace::default()
            .compute(constraints, flows)
            .to_vec()
    }

    fn flow(cs: &[usize]) -> FlowPath {
        FlowPath {
            constraints: cs.to_vec(),
            rate_cap: None,
        }
    }

    #[test]
    fn two_flows_share_one_link() {
        let cons = [Constraint { capacity: 100.0 }];
        let rates = max_min_rates(&cons, &[flow(&[0]), flow(&[0])]);
        assert!(close(rates[0], 50.0) && close(rates[1], 50.0));
    }

    #[test]
    fn bottleneck_frees_capacity_elsewhere() {
        // Flow A uses links 0 and 1; flow B only link 0. Link 0 has 100,
        // link 1 has 30. A is capped at 30 by link 1; B then gets 70.
        let cons = [
            Constraint { capacity: 100.0 },
            Constraint { capacity: 30.0 },
        ];
        let rates = max_min_rates(&cons, &[flow(&[0, 1]), flow(&[0])]);
        assert!(close(rates[0], 30.0), "{rates:?}");
        assert!(close(rates[1], 70.0), "{rates:?}");
    }

    #[test]
    fn per_flow_cap_is_honoured() {
        let cons = [Constraint { capacity: 100.0 }];
        let flows = [
            FlowPath {
                constraints: vec![0],
                rate_cap: Some(10.0),
            },
            flow(&[0]),
        ];
        let rates = max_min_rates(&cons, &flows);
        assert!(close(rates[0], 10.0));
        assert!(close(rates[1], 90.0));
    }

    #[test]
    fn unconstrained_flow_gets_sentinel_rate() {
        let cons = [Constraint {
            capacity: f64::INFINITY,
        }];
        let rates = max_min_rates(&cons, &[flow(&[0])]);
        assert_eq!(rates[0], UNCONSTRAINED_BPS);
    }

    #[test]
    fn switch_aggregate_binds_many_nics() {
        // 4 flows, each on its own 125 MB/s NIC pair, all through a
        // 250 MB/s switch: each gets 62.5 MB/s.
        let mut cons = vec![Constraint { capacity: 250.0e6 }];
        let mut flows = Vec::new();
        for i in 0..4 {
            cons.push(Constraint { capacity: 125.0e6 }); // src nic
            cons.push(Constraint { capacity: 125.0e6 }); // dst nic
            flows.push(flow(&[0, 1 + 2 * i, 2 + 2 * i]));
        }
        let rates = max_min_rates(&cons, &flows);
        for r in &rates {
            assert!(close(*r, 62.5e6), "{rates:?}");
        }
    }

    #[test]
    fn empty_flows() {
        assert!(max_min_rates(&[], &[]).is_empty());
    }
}
