package check

import (
	"fmt"
	"sort"
	"time"

	"proteus/internal/faultinject"
	"proteus/internal/sim"
	"proteus/internal/telemetry"
	"proteus/internal/testutil/clustertest"
	"proteus/internal/webtier"
)

// backingFunc adapts the oracle's versioned map to webtier.Backing.
type backingFunc func(key string) (string, bool)

func (f backingFunc) Get(key string) ([]byte, error) {
	v, ok := f(key)
	if !ok {
		return nil, fmt.Errorf("check: backing store has no key %q", key)
	}
	return []byte(v), nil
}

// livePlane drives the real stack — cluster.Coordinator over TCP
// cacheserver.LocalNodes, fronted by webtier.Frontend — through the
// checker's step vocabulary.
type livePlane struct {
	env   *clustertest.Env
	front *webtier.Frontend
	inj   *faultinject.Injector
	eng   *sim.Engine // the coordinator's TTL timer; moves only on Advance
	log   *telemetry.EventLog
}

func newLivePlane(opt Options, db func(key string) (string, bool)) (*livePlane, error) {
	if opt.SeedBug || opt.SeedBugFanout {
		return nil, fmt.Errorf("check: the seeded-bug hooks are sim-plane only")
	}
	inj := faultinject.New(opt.Seed)
	eng := sim.NewEngine()
	log := telemetry.NewEventLog(telemetry.EventLogConfig{Clock: eng.Now})
	//lint:allow transdeterminism the live plane half of the conformance harness drives real network components on purpose; determinism is enforced on the model side
	env, err := clustertest.New(clustertest.Opts{
		Nodes:         opt.Servers,
		InitialActive: opt.InitialActive,
		TTL:           opt.TTL,
		HotReplicas:   opt.HotReplicas,
		Backend:       opt.Backend,
		Faults:        inj,
		Seed:          opt.Seed,
		After:         eng.Timer,
		Events:        log,
	})
	if err != nil {
		return nil, err
	}
	front, err := webtier.New(webtier.Config{
		Coordinator: env.Coord,
		DB:          backingFunc(db),
		Events:      log,
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	return &livePlane{env: env, front: front, inj: inj, eng: eng, log: log}, nil
}

func (p *livePlane) Name() string { return "live" }

func (p *livePlane) Get(key string) Observation {
	//lint:allow transdeterminism the live plane half of the conformance harness drives real network components on purpose; determinism is enforced on the model side
	data, src, err := p.front.Fetch(key)
	if err != nil {
		return Observation{Err: err.Error()}
	}
	obs := Observation{Value: string(data), Found: true}
	switch src {
	case webtier.SourceNewCache:
		obs.Src = SourceHit
	case webtier.SourceOldCache:
		obs.Src = SourceMigrated
	default:
		obs.Src = SourceDB
	}
	return obs
}

func (p *livePlane) Set(key, value string) Observation {
	//lint:allow transdeterminism the live plane half of the conformance harness drives real network components on purpose; determinism is enforced on the model side
	if err := p.front.Update(key, []byte(value)); err != nil {
		return Observation{Err: err.Error()}
	}
	return Observation{}
}

func (p *livePlane) Scale(n int) Observation {
	//lint:allow transdeterminism the live plane half of the conformance harness drives real network components on purpose; determinism is enforced on the model side
	return scaleObservation(p.env.Coord.SetActive(n))
}

func (p *livePlane) Promote(key string) Observation {
	//lint:allow transdeterminism the live plane half of the conformance harness drives real network components on purpose; determinism is enforced on the model side
	hot, err := p.env.Coord.Promote(key)
	if err != nil {
		return Observation{Err: err.Error()}
	}
	return Observation{Found: hot}
}

func (p *livePlane) Demote(key string) Observation {
	return Observation{Found: p.env.Coord.Demote(key)}
}

func (p *livePlane) Crash(server int) {
	if server < 0 || server >= len(p.env.Locals) {
		return
	}
	_ = p.env.Locals[server].PowerOff()
}

func (p *livePlane) Partition(server int) { p.inj.Partition(server) }
func (p *livePlane) Heal(server int)      { p.inj.Heal(server) }

func (p *livePlane) Advance(d time.Duration) { p.eng.Advance(d) }

func (p *livePlane) State() PlaneState {
	st := PlaneState{Active: p.env.Coord.Active(), Transition: p.env.Coord.InTransition()}
	for _, l := range p.env.Locals {
		ns := NodeState{On: l.Running()}
		if srv := l.Server(); srv != nil {
			keys := srv.Cache().Keys() // LRU order; probes want a canonical order
			sort.Strings(keys)
			ns.Keys = keys
		}
		st.Nodes = append(st.Nodes, ns)
	}
	st.Digest = func(node int, key string) bool {
		srv := p.env.Locals[node].Server()
		if srv == nil {
			return false
		}
		return srv.DigestContains(key)
	}
	st.Value = func(node int, key string) (string, bool) {
		srv := p.env.Locals[node].Server()
		if srv == nil {
			return "", false
		}
		v, ok := srv.Cache().Get(key)
		return string(v), ok
	}
	return st
}

func (p *livePlane) Events() *telemetry.EventLog { return p.log }

func (p *livePlane) Close() { p.env.Close() }
