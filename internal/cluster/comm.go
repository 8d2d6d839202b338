package cluster

import "fmt"

// Comm is a communicator: an ordered group of processors that perform
// collective operations together, like an MPI communicator.  HD's processor
// grid is expressed as one Comm per row and one per column.
type Comm struct {
	c       *Cluster
	members []int       // global ranks, in communicator-rank order
	rankOf  map[int]int // global rank -> communicator rank
}

// NewComm builds a communicator over the given global ranks.  Ranks must be
// distinct and in range.
func NewComm(c *Cluster, members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: communicator needs at least one member")
	}
	cm := &Comm{c: c, members: append([]int(nil), members...), rankOf: make(map[int]int, len(members))}
	for r, g := range cm.members {
		if g < 0 || g >= c.P() {
			return nil, fmt.Errorf("cluster: communicator member %d out of range [0, %d)", g, c.P())
		}
		if _, dup := cm.rankOf[g]; dup {
			return nil, fmt.Errorf("cluster: duplicate communicator member %d", g)
		}
		cm.rankOf[g] = r
	}
	return cm, nil
}

// World returns the communicator containing every processor.
func (c *Cluster) World() *Comm {
	members := make([]int, c.P())
	for i := range members {
		members[i] = i
	}
	cm, err := NewComm(c, members)
	if err != nil {
		panic(err) // unreachable: members are valid by construction
	}
	return cm
}

// Size returns the number of members.
func (cm *Comm) Size() int { return len(cm.members) }

// Rank returns p's rank within the communicator, or -1 if p is not a
// member.
func (cm *Comm) Rank(p *Proc) int {
	r, ok := cm.rankOf[p.ID()]
	if !ok {
		return -1
	}
	return r
}

// Member returns the global ID of the given communicator rank.
func (cm *Comm) Member(rank int) int { return cm.members[rank] }

// sendRank / recvRank translate communicator ranks to global ranks.
func (cm *Comm) sendRank(p *Proc, rank int, tag string, payload any, bytes int) {
	p.Send(cm.members[rank], tag, payload, bytes)
}

func (cm *Comm) recvRank(p *Proc, rank int, tag string) Message {
	return p.Recv(cm.members[rank], tag)
}

// AllReduceInt64 element-wise sums vec across the communicator and returns
// the global sum on every member.  It is the "global reduction operation"
// of the CD algorithm, implemented as a binomial-tree reduce to rank 0
// followed by a binomial-tree broadcast — 2·log₂(size) structured message
// steps, each carrying the whole vector.
//
// Every member must call it with a vector of the same length; the input is
// never written.  The result is read-only: the members share one copy of
// the sum.  Only the members that add a partner's vector copy their own;
// a member whose first step is a send passes its input on as it is.  On a
// one-member communicator the sum is the input itself.
func (cm *Comm) AllReduceInt64(p *Proc, tag string, vec []int64) []int64 {
	rank, size := cm.Rank(p), cm.Size()
	if rank < 0 {
		panic(fmt.Sprintf("cluster: proc %d not in communicator for AllReduce %q", p.ID(), tag))
	}
	if size == 1 {
		return vec
	}
	acc, owned := vec, false
	bytes := 8 * len(acc)

	// Reduce to rank 0.
	for mask := 1; mask < size; mask <<= 1 {
		if rank&mask != 0 {
			cm.sendRank(p, rank-mask, tag+"/red", acc, bytes)
			break
		}
		partner := rank + mask
		if partner < size {
			msg := cm.recvRank(p, partner, tag+"/red")
			other := msg.Payload.([]int64)
			if len(other) != len(acc) {
				panic(fmt.Sprintf("cluster: AllReduce %q length mismatch: %d vs %d", tag, len(other), len(acc)))
			}
			if !owned {
				acc, owned = append([]int64(nil), vec...), true // the sum this member adds into
			}
			for i, v := range other {
				acc[i] += v
			}
			p.Compute(float64(len(acc))*p.Machine().TReduce, "reduction")
		}
	}
	// Broadcast the result from rank 0 down the same binomial tree.
	return cm.bcastInt64(p, tag+"/bc", acc)
}

func (cm *Comm) bcastInt64(p *Proc, tag string, acc []int64) []int64 {
	rank, size := cm.Rank(p), cm.Size()
	if rank != 0 {
		lsb := rank & -rank
		acc = cm.recvRank(p, rank-lsb, tag).Payload.([]int64) // the root's sum, shared
	}
	bytes := 8 * len(acc)
	for _, child := range cm.bcastChildren(rank, size) {
		cm.sendRank(p, child, tag, acc, bytes)
	}
	return acc
}

// bcastChildren returns the binomial-tree children of rank within a tree of
// the given size rooted at 0, in the (deterministic) order they are sent to.
func (cm *Comm) bcastChildren(rank, size int) []int {
	start := 1
	if rank == 0 {
		for start < size {
			start <<= 1
		}
		start >>= 1
	} else {
		start = (rank & -rank) >> 1
	}
	var children []int
	for step := start; step >= 1; step >>= 1 {
		if rank+step < size {
			children = append(children, rank+step)
		}
	}
	return children
}

// Gathered is one element of an AllGather result.
type Gathered struct {
	Rank    int // communicator rank of the contributor
	Payload any
	Bytes   int
}

// AllGather performs a ring-based all-to-all broadcast ([9] in the paper):
// every member contributes one payload and receives everyone's, in
// size-1 neighbor-shift steps with no contention.  Results are indexed by
// contributor rank.  The parallel formulations use it to exchange locally
// frequent itemsets after each pass.
func (cm *Comm) AllGather(p *Proc, tag string, payload any, bytes int) []Gathered {
	rank, size := cm.Rank(p), cm.Size()
	if rank < 0 {
		panic(fmt.Sprintf("cluster: proc %d not in communicator for AllGather %q", p.ID(), tag))
	}
	out := make([]Gathered, size)
	out[rank] = Gathered{Rank: rank, Payload: payload, Bytes: bytes}
	if size == 1 {
		return out
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	// At step s we forward the block that originated at rank-s and receive
	// the block that originated at rank-s-1 (all mod size).
	for s := 0; s < size-1; s++ {
		fwd := out[((rank-s)%size+size)%size]
		cm.sendRank(p, right, tag, fwd, fwd.Bytes)
		msg := cm.recvRank(p, left, tag)
		got := msg.Payload.(Gathered)
		out[got.Rank] = got
	}
	return out
}
