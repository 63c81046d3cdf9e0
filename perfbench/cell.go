package main

import (
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// instruments are what a traced or recording run attaches to a cell.
// The zero value runs the cell exactly as experiments.Run does.
type instruments struct {
	policy *policyStats // times sched.Policy calls
	gov    *callStats   // times governor.Governor.Request
	hub    *obs.Hub
	sample sim.Duration
	engine *sim.Engine
}

// cellRun is one cell's outcome.
type cellRun struct {
	res *metrics.Result
	// setup is the wall time before the cell's first event: preset
	// lookup, policy and governor construction, cpu.New and the
	// workload's Install. run is the rest.
	setup, run time.Duration
	err        error
}

// runCell builds and runs one cell through the same constructors
// experiments.Run uses, but times set-up apart from the run and lets a
// traced run decorate the policy and governor. A panic fails the cell.
func runCell(rs experiments.RunSpec, in instruments) (c cellRun) {
	defer func() {
		if r := recover(); r != nil {
			c = cellRun{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	start := time.Now()
	m, err := buildCell(rs, in)
	if err != nil {
		return cellRun{err: err}
	}
	c.setup = time.Since(start)
	c.res = m.Run(rs.Limit)
	c.run = time.Since(start) - c.setup
	c.res.Workload = rs.Workload
	return c
}

func buildCell(rs experiments.RunSpec, in instruments) (*cpu.Machine, error) {
	spec, err := machine.Preset(rs.Machine)
	if err != nil {
		return nil, err
	}
	newPolicy, err := experiments.Schedulers(rs.Scheduler)
	if err != nil {
		return nil, err
	}
	gov, err := governor.ByName(rs.Governor)
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(rs.Workload)
	if err != nil {
		return nil, err
	}
	policy := newPolicy()
	if in.policy != nil {
		policy = tracePolicy(policy, in.policy)
	}
	if in.gov != nil {
		gov = &govTracer{inner: gov, st: in.gov}
	}
	m := cpu.New(cpu.Config{
		Spec: spec, Gov: gov, Policy: policy, Engine: in.engine, Seed: rs.Seed,
		Obs: in.hub, SampleEvery: in.sample,
	})
	w.Install(m, rs.Scale)
	return m, nil
}
