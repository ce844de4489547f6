package simsched

import (
	"fmt"

	"dpflow/internal/dag"
)

// Cluster models the paper's second future-work direction — "extending the
// framework to distributed-memory parallel machines" — in the style of
// distributed CnC / PaRSEC: owner-computes placement (every task runs on
// its home node), with a latency + size/bandwidth communication delay on
// every dependency edge that crosses nodes. Within a node, tasks share the
// node's cores under the same greedy policy as Simulate.
type Cluster struct {
	Nodes        int
	CoresPerNode int
	// Home maps a task to its owning node (e.g. block-cyclic over tiles).
	Home func(id int) int
	// Latency is the per-message fixed cost, seconds.
	Latency float64
	// TransferTime is the per-message payload cost, seconds (tile bytes /
	// interconnect bandwidth). Joins transfer nothing.
	TransferTime float64
}

// ClusterResult extends Result with communication accounting.
type ClusterResult struct {
	Result
	Messages int // dependency edges that crossed nodes
	CommTime float64
}

// SimulateCluster executes the DAG on the cluster. A task becomes runnable
// on its home node when every predecessor has finished and — for remote
// predecessors — its output has arrived (finish + Latency + TransferTime).
func SimulateCluster(g dag.Graph, cl Cluster, c Costs) (ClusterResult, error) {
	if cl.Nodes < 1 || cl.CoresPerNode < 1 || cl.Home == nil {
		return ClusterResult{}, fmt.Errorf("simsched: cluster needs Nodes, CoresPerNode >= 1 and a Home function")
	}
	n := g.Len()
	indeg := make([]int32, n)
	avail := make([]float64, n) // earliest start due to dependencies/comm
	// Per-node ready pools ordered by availability time (heap of events).
	readyQ := make([]eventHeap, cl.Nodes)
	free := make([]int, cl.Nodes)
	for i := range free {
		free[i] = cl.CoresPerNode
	}
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.InDeg(i))
		if indeg[i] == 0 {
			readyQ[cl.Home(i)%cl.Nodes].push(event{at: c.Startup, id: int32(i)})
		}
	}

	var (
		running  eventHeap // completion events; id encodes task
		now      = c.Startup
		done     int
		busy     float64
		messages int
		commTime float64
	)
	dispatch := func() {
		for node := 0; node < cl.Nodes; node++ {
			q := &readyQ[node]
			for free[node] > 0 && !q.empty() && q.peek().at <= now {
				ev := q.pop()
				t := c.TaskTime(g.Kind(int(ev.id)))
				busy += t
				running.push(event{at: now + t, id: ev.id})
				free[node]--
			}
		}
	}
	nextReadyTime := func() (float64, bool) {
		best, ok := 0.0, false
		for node := 0; node < cl.Nodes; node++ {
			if free[node] == 0 || readyQ[node].empty() {
				continue
			}
			at := readyQ[node].peek().at
			if !ok || at < best {
				best, ok = at, true
			}
		}
		return best, ok
	}

	// release hands the completed task id, homed on node, to each of its
	// successors.
	var (
		id   int32
		node int
	)
	release := func(s int) {
		arrive := now
		if sn := cl.Home(s) % cl.Nodes; sn != node && g.Kind(int(id)) != dag.KindJoin {
			delay := cl.Latency + cl.TransferTime
			arrive += delay
			messages++
			commTime += delay
		}
		if arrive > avail[s] {
			avail[s] = arrive
		}
		indeg[s]--
		if indeg[s] == 0 {
			readyQ[cl.Home(s)%cl.Nodes].push(event{at: avail[s], id: int32(s)})
		}
	}

	for done < n {
		dispatch()
		// Advance time: to the next completion, or — if cores sit free
		// waiting on in-flight messages — to the next availability.
		if running.empty() {
			at, ok := nextReadyTime()
			if !ok {
				return ClusterResult{}, fmt.Errorf("simsched: %d of %d tasks never became ready (cycle?)", n-done, n)
			}
			now = at
			continue
		}
		if at, ok := nextReadyTime(); ok && at < running.peek().at {
			now = at
			continue
		}
		ev := running.pop()
		now = ev.at
		for {
			id = ev.id
			node = cl.Home(int(id)) % cl.Nodes
			free[node]++
			g.EachSucc(int(id), release)
			done++
			if running.empty() || running.peek().at != now {
				break
			}
			ev = running.pop()
		}
	}
	res := ClusterResult{Messages: messages, CommTime: commTime}
	res.Makespan = now
	res.Work = totalWork(g, c)
	res.Processors = cl.Nodes * cl.CoresPerNode
	res.BusyTime = busy
	res.Utilization = busy / (float64(res.Processors) * now)
	return res, nil
}
