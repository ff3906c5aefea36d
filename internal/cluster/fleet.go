package cluster

// The fleet telemetry wiring: how per-node NodeStats get collected, ride
// the wire, and become per-epoch FleetSnapshots.
//
// Timing: stats are collected at the END of epoch e — after the fetch,
// data, and governor phases — so they describe settled post-sync state (a
// node that synced reports lag 0, because every publish precedes the
// fetch phase and the controller epoch is stable through the epoch end).
// The collected report is installed on the agent (control.Agent.SetStats)
// and DELIVERED during epoch e+1's first wire exchange; the bootstrap
// report set by New covers epoch 1. The controller ingests a report
// before writing its response, so by the time fetchPhase joins, every
// successful exchange's report is in the Fleet — EndEpoch then closes the
// round deterministically.
//
// Non-interference: stats ride only exchanges the agent was already
// making (chaos faults are drawn per exchange, so the exchange sequence — and
// with it every report field — is identical with the plane on or off),
// and nothing ever reads fleet state to make a decision. A node that
// cannot reach the controller delivers no report and goes dark at the
// controller: the fleet view is deliberately the controller's wire truth.

import "nwdeploy/internal/telemetry"

// collectStats builds one node's end-of-epoch self-report from the epoch
// loop's settled state.
func (c *Cluster) collectStats(a *NodeAgent) telemetry.NodeStats {
	s := telemetry.NodeStats{
		Node:          a.node,
		StaleEpochs:   a.staleEpochs,
		FetchErrors:   a.tally.failures,
		FetchTimeouts: a.tally.timeouts,
		FloorLimited:  a.lastFloor,
		Sessions:      a.lastEngine.Observed,
		Alerts:        a.lastEngine.Alerts,
		Conns:         a.lastEngine.Conns,
	}
	if a.tally.attempts > 1 {
		s.FetchRetries = a.tally.attempts - 1
	}
	if a.Usable() {
		d := a.Decider()
		s.Epoch = d.Epoch()
		s.ShedWidth = d.ShedWidth()
		if ce := c.ctrl.Epoch(); ce > s.Epoch {
			s.Lag = ce - s.Epoch
		}
	}
	return s
}

// sampleFleet closes the epoch's telemetry round: collect every up
// agent's stats, install them for the next epoch's piggyback, fold the
// snapshot, and retain it in the history ring. The last phase of every
// epoch; a no-op without a configured Fleet.
func (c *Cluster) sampleFleet() {
	if c.cfg.Fleet == nil {
		return
	}
	for _, a := range c.agents {
		if a.down {
			// A crashed agent's control client was rebuilt by restart()
			// with no stats attached; a drained one keeps its pre-drain
			// report. Either way there is nothing fresh to collect — the
			// node was not running this epoch.
			continue
		}
		s := c.collectStats(a)
		a.lastStats = s
		a.agent.SetStats(&s)
	}
	snap := c.cfg.Fleet.EndEpoch(c.epoch, c.ctrl.Epoch())
	c.cfg.FleetHistory.Add(snap)
}

// fleetDrainFarewell is the maintenance workflow's graceful goodbye: at
// the moment a node enters a planned drain, the runtime reports its last
// collected stats with the Draining flag set, directly into the Fleet
// (the node itself goes silent on the wire for the drain window). The
// flag is what lets the health state machine classify the silence as
// stale — planned — rather than dark. Crashes send no farewell.
func (c *Cluster) fleetDrainFarewell(a *NodeAgent) {
	if c.cfg.Fleet == nil {
		return
	}
	s := a.lastStats
	s.Draining = true
	c.cfg.Fleet.Report(s)
}
