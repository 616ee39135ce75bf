package sim

import (
	"math/rand"
	"time"

	"proteus/internal/core"
	"proteus/internal/faultinject"
	"proteus/internal/metrics"
	"proteus/internal/power"
	"proteus/internal/provision"
	"proteus/internal/telemetry"
	"proteus/internal/transition"
	"proteus/internal/workload"
)

// The paper's testbed fixes these; no experiment varies them.
const (
	webServers = 10 // web tier size, for the power model
	rbeServers = 10 // RBE client hosts, for the power model
	// dbConcurrency bounds in-flight queries per shard: one connection.
	dbConcurrency = 1
	// cacheConcurrency is each cache server's service parallelism.
	cacheConcurrency = 8
	// nominalResponse converts the rate curve into a closed-loop user
	// count (rate = users / (think + response)).
	nominalResponse = 20 * time.Millisecond
	// controllerQuantile is the delay percentile fed to a Policy.
	controllerQuantile = 0.999
)

// Run executes one scenario and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.run()
}

type runner struct {
	cfg Config
	eng *Engine
	rng *rand.Rand

	nodes []*cacheNode
	db    *dbModel

	// machine sequences every scenario's power and routing (Section
	// IV). A Table II baseline's machine routes with its own scheme and
	// is brutal: each window closes in the engine event that opened it,
	// so dying servers power off at the flip and nothing migrates.
	machine *transition.Machine

	provisionedN int              // plan level currently being executed
	provGen      int              // invalidates superseded boot callbacks
	policy       provision.Policy // closed-loop decisions; nil in plan mode

	pool       *workload.UserPool // materialises the RBE browsers
	users      []*simUser
	aliveUsers int
	nextUserID int

	tracer *telemetry.Tracer
	events *telemetry.EventLog

	latency    *metrics.LatencySeries
	bySource   [3]*metrics.Histogram
	load       *metrics.LoadSeries
	meter      *power.Meter
	reqCounter *workload.Counter
	stats      Stats
	activeLog  []int

	// controller mode: per-slot measurement window
	slotHist     metrics.Histogram
	slotRequests uint64
	realisedPlan []int

	// per-power-sample accounting
	webRequests uint64

	horizon time.Duration // Warmup + Duration
}

type simUser struct {
	user  *workload.User
	alive bool
	// turn is the user's one engine callback, built when the user is
	// spawned and re-armed after every response. The engine drops its
	// reference when the event fires, so the user owns the func value and
	// at most one event holds it at a time.
	turn func()
}

func newRunner(cfg Config) (*runner, error) {
	pool, err := workload.NewUserPool(workload.UserPoolConfig{Corpus: cfg.Corpus, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	eng := NewEngine()
	r := &runner{
		cfg:        cfg,
		eng:        eng,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		pool:       pool,
		db:         newDBModel(cfg.Corpus, cfg.DBShards, dbConcurrency, cfg.DBLatency, cfg.Seed+101),
		latency:    metrics.NewLatencySeries(cfg.Duration, cfg.Duration/time.Duration(cfg.LatencySlots)),
		load:       metrics.NewLoadSeries(cfg.Duration, cfg.SlotWidth, cfg.CacheServers),
		meter:      power.NewMeter(),
		reqCounter: workload.HourlyCounts(cfg.Duration, cfg.Duration/24),
		horizon:    cfg.Warmup + cfg.Duration,
	}
	r.policy = cfg.Policy
	for i := range r.bySource {
		r.bySource[i] = &metrics.Histogram{}
	}
	if cfg.Telemetry {
		// Both stores run off the engine clock and the run seed, so the
		// whole observability stream is replay-deterministic.
		r.tracer = telemetry.NewTracer(telemetry.TracerConfig{Clock: eng.Clock(), Seed: cfg.Seed})
		r.events = telemetry.NewEventLog(telemetry.EventLogConfig{Clock: eng.Now})
	}
	if cfg.Faults != nil {
		// Crash hooks run synchronously inside the engine event that
		// fired them (TransitionStarted at the ownership flip), so the
		// power-off lands at a deterministic virtual time.
		cfg.Faults.OnCrash(func(server int) {
			if server >= 0 && server < len(r.nodes) && r.nodes[server].state == nodeOn {
				r.nodes[server].powerOff()
			}
		})
	}

	capacityBytes := int64(cfg.CachePagesPerServer) * (int64(len(cfg.Corpus.Key(cfg.Corpus.Pages()-1))) + 48)
	for i := 0; i < cfg.CacheServers; i++ {
		// Per-item TTL is zero: like memcached, items live until
		// evicted. The config TTL is the hot-data window that bounds
		// the smooth-transition deadline, not an item lifetime.
		node, err := newCacheNode(eng, i, capacityBytes, 0, cfg.DigestParams, cacheConcurrency)
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, node)
	}

	mcfg := transition.Config{
		Fleet:         &fleet{nodes: r.nodes, noDigest: cfg.DisableDigest},
		Nodes:         cfg.CacheServers,
		InitialActive: cfg.Plan[0],
		TTL:           cfg.TTL,
		Replicas:      cfg.Replicas,
		Backend:       cfg.Backend,
		After:         eng.Timer,
		Faults:        cfg.Faults,
		Events:        r.events,
	}
	if cfg.Scenario != ScenarioProteus {
		// A baseline routes by its Table II scheme, broadcasts no digest
		// and has no crash hook at the flip; validate already holds
		// it to one copy.
		mcfg.Backend = core.BackendModulo
		if cfg.Scenario == ScenarioConsistent {
			mcfg.Backend = core.BackendConsistent
		}
		mcfg.Fleet = &fleet{nodes: r.nodes, noDigest: true}
		mcfg.Faults = nil
	}
	m, err := transition.New(mcfg)
	if err != nil {
		return nil, err
	}
	r.machine = m
	return r, nil
}

func (r *runner) run() (*Result, error) {
	// The machine brought up the initial fleet.
	initial := r.cfg.Plan[0]
	if r.policy != nil {
		r.realisedPlan = append(r.realisedPlan, initial)
	}
	r.provisionedN = initial

	// Slot boundaries (plan applies from Warmup onward; the warmup
	// period runs at Plan[0]).
	slots := len(r.cfg.Plan)
	for s := 1; s < slots; s++ {
		slot := s
		r.eng.At(r.cfg.Warmup+time.Duration(slot)*r.cfg.SlotWidth, func() {
			r.applyPlan(slot)
		})
	}

	// Unplanned failure injection.
	if r.cfg.CrashAt > 0 && r.cfg.CrashServer >= 0 && r.cfg.CrashServer < r.cfg.CacheServers {
		r.eng.At(r.cfg.Warmup+r.cfg.CrashAt, func() {
			node := r.nodes[r.cfg.CrashServer]
			if node.state == nodeOn {
				node.powerOff()
			}
		})
	}

	// Power sampling.
	for t := time.Duration(0); t <= r.horizon; t += r.cfg.PowerEvery {
		at := t
		r.eng.At(at, func() { r.samplePower(at) })
	}

	if len(r.cfg.Trace) > 0 {
		// Open-loop trace replay: arrivals come from the trace, not a
		// closed user loop.
		r.scheduleTraceBatch(0)
	} else {
		// User population control: retarget every slot and at start.
		r.retargetUsers()
		for s := 1; s < slots; s++ {
			r.eng.At(r.cfg.Warmup+time.Duration(s)*r.cfg.SlotWidth, r.retargetUsers)
		}
		// Also retarget during warmup-to-measurement handoff.
		r.eng.At(r.cfg.Warmup, r.retargetUsers)
	}

	r.eng.Run(r.horizon)

	r.activeLog = append(r.activeLog, r.machine.Epoch().Active)
	plan := r.cfg.Plan
	if r.policy != nil {
		plan = r.realisedPlan
	}
	return &Result{
		Scenario:      r.cfg.Scenario,
		Config:        r.cfg,
		Plan:          plan,
		Latency:       r.latency,
		BySource:      r.bySource,
		Load:          r.load,
		Meter:         r.meter,
		Requests:      r.reqCounter,
		Stats:         r.stats,
		ActivePerSlot: r.activeLog,
		Tracer:        r.tracer,
		Events:        r.events,
	}, nil
}

// applyPlan executes the provisioning decision for a slot boundary.
func (r *runner) applyPlan(slot int) {
	// One epoch per decision: whether a window is open, and whether it
	// is a scale-down still draining (dying servers serving hot data for
	// on-demand migration).
	ep := r.machine.Epoch()
	open, draining := ep.Open(), ep.Draining()
	r.activeLog = append(r.activeLog, ep.Active)
	var target int
	if r.policy != nil {
		// Closed loop: decide from the ending slot's measurements, as
		// the paper's feedback experiment does.
		delay := r.slotHist.Quantile(controllerQuantile)
		rate := float64(r.slotRequests) / r.cfg.SlotWidth.Seconds()
		r.slotHist.Reset()
		r.slotRequests = 0
		decision := r.policy.Decide(provision.State{
			Slot:         slot,
			Now:          r.eng.Now() - r.cfg.Warmup,
			SlotWidth:    r.cfg.SlotWidth,
			Delay:        delay,
			Rate:         rate,
			Active:       r.provisionedN,
			InTransition: open,
			Draining:     draining,
		})
		target = decision.Servers
		if target < 1 {
			target = 1
		}
		if target > r.cfg.CacheServers {
			target = r.cfg.CacheServers
		}
		// TTL-aware actuation gate: issuing a scale-down while the
		// previous window is still draining would finalize it early and
		// power off servers whose hot data has not finished migrating.
		// Defer the decision to the next slot instead.
		if target < r.provisionedN && draining {
			r.stats.ScaleDownsDeferred++
			target = r.provisionedN
		}
		r.realisedPlan = append(r.realisedPlan, target)
		r.events.Record(telemetry.Event{Kind: telemetry.EventProvisionDecision,
			Node: slot, From: r.provisionedN, To: target})
	} else {
		target = r.cfg.Plan[slot]
	}
	if target == r.provisionedN {
		return
	}
	if target < r.provisionedN && draining {
		// Unreachable for policy runs (the gate above defers); counted
		// so the harness can assert the invariant held across a sweep.
		r.stats.MidDrainScaleDowns++
	}
	// A new decision supersedes any in-flight transition: finalize it
	// now — a scale-up's own flip waits for the boot delay.
	r.machine.FinalizeNow()
	r.provGen++
	gen := r.provGen

	if target > r.provisionedN {
		for i := ep.Active; i < target; i++ {
			r.nodes[i].state = nodeBooting
		}
		r.eng.After(r.cfg.BootDelay, func() {
			if r.provGen == gen { // not superseded
				r.transitionTo(target)
			}
		})
	} else {
		// Dying servers keep serving hot data for TTL while requests
		// migrate it on demand (Section IV).
		r.transitionTo(target)
	}
	r.provisionedN = target
}

// transitionTo runs one transition through the machine: digests
// broadcast, routing switched to the new prefix, Algorithm 2 covering
// the window until the TTL deadline. A baseline closes the window at
// once: the brutal remap.
func (r *runner) transitionTo(n int) {
	// The only error a simulated fleet can produce is a degraded
	// digest (a crashed source, or DisableDigest), which the request
	// path absorbs.
	flipped, _ := r.machine.SetActive(n)
	if r.cfg.Scenario != ScenarioProteus {
		r.machine.FinalizeNow()
	} else if flipped {
		r.stats.Transitions++
	}
}

// traceBatchSize bounds how many trace arrivals sit in the event heap
// at once.
const traceBatchSize = 4096

// scheduleTraceBatch feeds the next slice of open-loop arrivals into
// the engine, rescheduling itself when the batch is drained.
func (r *runner) scheduleTraceBatch(start int) {
	trace := r.cfg.Trace
	end := start + traceBatchSize
	if end > len(trace) {
		end = len(trace)
	}
	for i := start; i < end; i++ {
		ev := trace[i]
		r.eng.At(ev.At, func() {
			issued := r.eng.Now()
			r.startRequest(ev.Key, func(finish time.Duration) {
				if rel := issued - r.cfg.Warmup; rel >= 0 {
					r.latency.Observe(rel, finish-issued)
				}
				if r.policy != nil {
					r.slotHist.Observe(finish - issued)
					r.slotRequests++
				}
			})
		})
	}
	if end < len(trace) {
		// The trace is time-ordered, so scheduling the next batch when
		// the last event of this one fires keeps the heap bounded.
		r.eng.At(trace[end-1].At, func() { r.scheduleTraceBatch(end) })
	}
}

// retargetUsers matches the closed-loop population to the rate curve.
func (r *runner) retargetUsers() {
	t := r.eng.Now() - r.cfg.Warmup
	if t < 0 {
		t = 0
	}
	target := workload.ActiveUsers(r.cfg.Rate.Rate(t), nominalResponse)
	for r.aliveUsers < target {
		r.spawnUser()
	}
	// Excess users are retired lazily: mark newest-first as dead.
	excess := r.aliveUsers - target
	for i := len(r.users) - 1; i >= 0 && excess > 0; i-- {
		if r.users[i].alive {
			r.users[i].alive = false
			r.aliveUsers--
			excess--
		}
	}
}

func (r *runner) spawnUser() {
	u := &simUser{user: r.pool.User(r.nextUserID), alive: true}
	u.turn = func() { r.userTurn(u) }
	r.nextUserID++
	r.users = append(r.users, u)
	r.aliveUsers++
	// Desynchronise first requests across one think period.
	delay := time.Duration(r.rng.Int63n(int64(workload.ThinkTime) + 1))
	r.eng.After(delay, u.turn)
}

// userTurn issues one request and reschedules the user after think time.
func (r *runner) userTurn(u *simUser) {
	if !u.alive || r.eng.Now() >= r.horizon {
		return
	}
	key := u.user.NextPage()
	issued := r.eng.Now()
	r.startRequest(key, func(finish time.Duration) {
		if rel := issued - r.cfg.Warmup; rel >= 0 {
			r.latency.Observe(rel, finish-issued)
		}
		if r.policy != nil {
			r.slotHist.Observe(finish - issued)
			r.slotRequests++
		}
		r.eng.At(finish+u.user.NextThink(), u.turn)
	})
}

// startRequest models Algorithm 2 (data retrieval) in virtual time and
// calls done with the response completion time. With replication the
// rings are read in order; a crashed or powered-off owner degrades to
// the next ring, then to the database.
func (r *runner) startRequest(key string, done func(finish time.Duration)) {
	now := r.eng.Now()
	rel := now - r.cfg.Warmup
	measured := rel >= 0
	if measured {
		r.reqCounter.Observe(rel)
	}
	r.stats.Requests++
	r.webRequests++

	sp := r.tracer.Start("sim.request")
	sp.SetAttr("key", key)
	finishReq := func(src RequestSource, finish time.Duration) {
		sp.SetAttr("source", src.String())
		sp.EndAt(r.eng.Time(finish))
		done(finish)
	}

	t := now + r.cfg.WebOverhead

	// One routing epoch per request.
	ep := r.machine.Epoch()
	primary := ep.Owner(key, 0)
	if measured {
		r.load.Observe(rel, primary)
	}

	var tried [8]int
	nTried := 0
	missCounted := false
	for ring, rings := 0, ep.RingsFor(key); ring < rings; ring++ {
		owner := primary
		if ring > 0 {
			owner = ep.Owner(key, ring)
		}
		dup := false
		for i := 0; i < nTried; i++ {
			if tried[i] == owner {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if nTried < len(tried) {
			tried[nTried] = owner
			nTried++
		}
		node := r.nodes[owner]
		if node.state != nodeOn {
			continue // crashed or powered off: fall through
		}
		switch d := r.fault(owner, faultinject.OpGet); d.Kind {
		case faultinject.KindError, faultinject.KindDrop:
			continue // unreachable owner: degrade to the next ring / DB
		case faultinject.KindDelay, faultinject.KindSlowRead:
			t += d.Delay
		}

		// Algorithm 2 line 2: the ring's new owner.
		t = node.queue.schedule(t, r.cfg.CacheService) + r.cfg.CacheRTT
		if _, ok := node.store.Get(key); ok {
			r.stats.CacheHits++
			if ring > 0 {
				r.stats.ReplicaHits++
			}
			if measured {
				r.bySource[SourceHit].Observe(t - now)
			}
			finishReq(SourceHit, t)
			return
		}
		if ring == 0 {
			r.stats.CacheMisses++
			missCounted = true
		}

		// Lines 6-8: during a Proteus transition, consult the ring's
		// old owner's digest before paying the database price.
		if ep.Open() && !r.cfg.DisableDigest {
			if _, oldOwner, tryOld := ep.Route(key, ring); tryOld {
				oldNode := r.nodes[oldOwner]
				oldOK := oldNode.state == nodeOn
				if oldOK {
					switch d := r.fault(oldOwner, faultinject.OpGet); d.Kind {
					case faultinject.KindError, faultinject.KindDrop:
						// Faulted old owner: fall through to the DB path,
						// mirroring the web tier's degradation.
						oldOK = false
					case faultinject.KindDelay, faultinject.KindSlowRead:
						t += d.Delay
					}
				}
				if oldOK {
					t = oldNode.queue.schedule(t, r.cfg.CacheService) + r.cfg.CacheRTT
					if value, ok := oldNode.store.Get(key); ok {
						// Hot data: migrate on demand (line 12 put, then reply).
						r.stats.MigratedOnDemand++
						r.events.Record(telemetry.Event{Kind: telemetry.EventMigrationHit, Node: oldOwner})
						tPut := node.queue.schedule(t, r.cfg.CacheService) + r.cfg.CacheRTT
						if measured {
							r.bySource[SourceMigrated].Observe(tPut - now)
						}
						val, at := value, t
						r.eng.At(at, func() { node.store.Set(key, val, 0) })
						finishReq(SourceMigrated, tPut)
						return
					}
					r.stats.DigestFalsePos++
					r.events.Record(telemetry.Event{Kind: telemetry.EventMigrationMiss, Node: oldOwner})
				}
			} else if ring == 0 {
				r.stats.DigestMisses++
			}
		}
	}
	if !missCounted {
		r.stats.CacheMisses++
	}

	issued := now
	r.finishViaDB(key, t, func(finish time.Duration) {
		if measured {
			r.bySource[SourceDB].Observe(finish - issued)
		}
		finishReq(SourceDB, finish)
	})
}

// finishViaDB fetches from the database tier and writes through to
// every distinct running owner (Algorithm 2 lines 10-12; with
// replication the key regains its full copy set).
func (r *runner) finishViaDB(key string, from time.Duration, done func(time.Duration)) {
	idx, ok := r.cfg.Corpus.Index(key)
	if !ok {
		done(from) // foreign key: nothing to fetch
		return
	}
	r.stats.DBQueries++
	dbDone := r.db.fetch(from, idx)
	finish := dbDone

	owners := r.machine.Epoch().Owners(key)
	for i, owner := range owners {
		node := r.nodes[owner]
		if node.state != nodeOn {
			continue
		}
		at := dbDone
		switch d := r.fault(owner, faultinject.OpSet); d.Kind {
		case faultinject.KindError, faultinject.KindDrop:
			continue // failed write-through: the owner stays cold, not wrong
		case faultinject.KindDelay, faultinject.KindSlowRead:
			at += d.Delay
		}
		setDone := node.queue.schedule(at, r.cfg.CacheService) + r.cfg.CacheRTT
		if i == 0 {
			// The primary write-through is on the response path
			// (Algorithm 2 puts before returning); replicas fill
			// asynchronously.
			finish = setDone
		}
		n := node
		r.eng.At(at, func() {
			if n.state == nodeOn {
				// Values are zero-length in simulation: cache capacity
				// is accounted in pages (key + per-item overhead).
				n.store.Set(key, nil, 0)
			}
		})
	}
	done(finish)
}

// fault consults the injector for one virtual-time operation; the zero
// Decision means proceed.
func (r *runner) fault(server int, op faultinject.Op) faultinject.Decision {
	if r.cfg.Faults == nil {
		return faultinject.Decision{}
	}
	return r.cfg.Faults.Decide(server, op)
}

// samplePower records one PDU sample across the four tiers.
func (r *runner) samplePower(at time.Duration) {
	interval := r.cfg.PowerEvery
	model := power.DefaultServer

	cacheW := 0.0
	for _, n := range r.nodes {
		switch n.state {
		case nodeOff:
			cacheW += model.Watts(false, 0)
		case nodeBooting:
			cacheW += model.Watts(true, 0.5) // boot burn
		default:
			util := float64(n.queue.takeBusy()) / float64(interval) / cacheConcurrency
			cacheW += model.Watts(true, util)
		}
	}

	dbW := 0.0
	for _, sh := range r.db.shards {
		util := float64(sh.takeBusy()) / float64(interval) / dbConcurrency
		dbW += model.Watts(true, util)
	}

	// Web and RBE tiers: utilisation follows the request rate.
	reqs := float64(r.webRequests)
	r.webRequests = 0
	perServerRPS := reqs / interval.Seconds() / webServers
	webUtil := perServerRPS / 150 // nominal 150 req/s per web server at full tilt
	webW := webServers * model.Watts(true, webUtil)
	rbeW := rbeServers * model.Watts(true, webUtil/2)

	rel := at - r.cfg.Warmup
	if rel < 0 {
		return
	}
	_ = r.meter.Record(rel, map[string]float64{
		"cache": cacheW,
		"db":    dbW,
		"web":   webW,
		"rbe":   rbeW,
	})
}
