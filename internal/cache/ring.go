package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// node is one record of a Ring's node arena: pages of chunk ch, the bits of
// mask, next to each other on the ring in ascending index order. Node 0 is
// the sentinel; a node never splits and is freed, onto the free list that
// next links and 0 ends, when it empties. It holds no pointers.
type node struct {
	mask       uint64
	ch         int32 // chunk handle; 0 for the sentinel and free nodes
	prev, next int32 // ring links; next also links the free list
}

// Ring is an LRU ring of page runs, after Do et al.'s simulated LRU lists of
// data blocks: the host cache keeps its clean pages on one, a qemusim guest
// all of its resident pages. A page is a bit of a chunk's mask, the chunk a
// non-zero handle its owner issues. The owner passes each operation the
// chunk's unordered node list, which the ring keeps exact; which pages go
// on the ring, and when they leave, is the owner's policy. Call Init first.
type Ring struct {
	nodes arena[node] // node 0 is the sentinel; its next is the least recent node
	free  int32       // head of the free list, 0 when empty
}

// Init issues the sentinel of an empty ring.
func (r *Ring) Init() { r.nodes.grow() }

// Push appends pages m of chunk ch, none on the ring, at its tail in index
// order: into the tail node if it is ch's and holds only lower pages.
func (r *Ring) Push(ch int32, list *[]int32, m uint64) {
	sentinel := r.nodes.at(0)
	if tail := r.nodes.at(sentinel.prev); tail.ch == ch && bits.Len64(tail.mask) <= bits.TrailingZeros64(m) {
		tail.mask |= m
		return
	}
	n := r.free
	if n == 0 {
		n = r.nodes.grow()
	} else {
		r.free = r.nodes.at(n).next
	}
	*r.nodes.at(n) = node{mask: m, ch: ch, prev: sentinel.prev}
	r.nodes.at(sentinel.prev).next = n
	sentinel.prev = n
	*list = append(*list, n)
}

// Unlink takes pages m, held by list's nodes, off the ring, stopping once all
// are found; it edits the list only to drop a node that empties and is freed.
func (r *Ring) Unlink(list *[]int32, m uint64) {
	l := *list
	for i := 0; m != 0; {
		nd := r.nodes.at(l[i])
		o := nd.mask & m
		m &^= o
		if nd.mask &^= o; nd.mask != 0 {
			i++
			continue
		}
		r.freeNode(l[i])
		l[i], l = l[len(l)-1], l[:len(l)-1]
	}
	*list = l
}

// Take takes pages m off node n, which list holds. It walks the list only
// when n empties, to swap-remove the freed node as Unlink would.
func (r *Ring) Take(n int32, list *[]int32, m uint64) {
	nd := r.nodes.at(n)
	if nd.mask &^= m; nd.mask != 0 {
		return
	}
	r.freeNode(n)
	l := *list
	i := slices.Index(l, n)
	l[i], *list = l[len(l)-1], l[:len(l)-1]
}

// Promote moves pages m of chunk ch, all on the ring, to its tail in index
// order.
func (r *Ring) Promote(ch int32, list *[]int32, m uint64) {
	r.Unlink(list, m)
	r.Push(ch, list, m)
}

// freeNode takes node n off the ring and returns it to the free list; the
// caller drops it from its chunk's list.
func (r *Ring) freeNode(n int32) {
	nd := r.nodes.at(n)
	r.nodes.at(nd.prev).next = nd.next
	r.nodes.at(nd.next).prev = nd.prev
	*nd = node{next: r.free}
	r.free = n
}

// Next returns the node after n in ring order: after 0 the least recent, 0 after the most recent.
func (r *Ring) Next(n int32) int32 { return r.nodes.at(n).next }

// Node returns the chunk handle and the pages of node n.
func (r *Ring) Node(n int32) (ch int32, mask uint64) { return r.nodes.at(n).ch, r.nodes.at(n).mask }

// RingCheck verifies a Ring against its chunks: Chunk for each chunk, then Done.
type RingCheck struct {
	r     *Ring
	state []byte // per node handle: 0 unseen, 1 in use, 2 on the free list
	inUse int
}

// Check starts a consistency check of r.
func (r *Ring) Check() *RingCheck { return &RingCheck{r: r, state: make([]byte, r.nodes.n)} }

// Chunk checks the node list of chunk ch: each node lies in the arena, is
// listed by no other chunk, names ch and holds pages, none of them another
// node's. It returns the pages the nodes hold together.
func (k *RingCheck) Chunk(ch int32, list []int32) (held uint64, err error) {
	for _, n := range list {
		if n <= 0 || n >= k.r.nodes.n || k.state[n] != 0 {
			return 0, fmt.Errorf("lists node %d, outside the node arena or another chunk's", n)
		}
		k.state[n] = 1
		nd := k.r.nodes.at(n)
		if nd.ch != ch {
			return 0, fmt.Errorf("lists node %d, which names chunk %d", n, nd.ch)
		}
		if nd.mask == 0 || nd.mask&held != 0 {
			return 0, fmt.Errorf("lists node %d holding pages %#x, none or another node's", n, nd.mask)
		}
		held |= nd.mask
	}
	k.inUse += len(list)
	return held, nil
}

// Done checks the rest of the ring: the free list is acyclic and holds no
// node in use, nodes in use and free nodes together fill the arena less the
// sentinel, and the ring holds exactly the nodes in use, with every prev
// link the inverse of a next link (so the walk meets no node twice).
func (k *RingCheck) Done() error {
	r, free := k.r, 0
	for n := r.free; n != 0; n, free = r.nodes.at(n).next, free+1 {
		switch {
		case n < 0 || n >= r.nodes.n:
			return fmt.Errorf("free list holds handle %d, outside the node arena", n)
		case k.state[n] == 1:
			return fmt.Errorf("free list holds node %d, which is in use", n)
		case k.state[n] == 2:
			return fmt.Errorf("free list cycles back to node %d", n)
		}
		k.state[n] = 2
	}
	if k.inUse+free != int(r.nodes.n-1) {
		return fmt.Errorf("%d nodes in use and %d free, the node arena holds %d", k.inUse, free, r.nodes.n-1)
	}
	onRing, prev := 0, int32(0)
	for n := r.nodes.at(0).next; n != 0; prev, n = n, r.nodes.at(n).next {
		if n < 0 || n >= r.nodes.n || r.nodes.at(n).prev != prev || k.state[n] != 1 || onRing == k.inUse {
			return fmt.Errorf("LRU ring link broken after %d nodes", onRing)
		}
		onRing++
	}
	if r.nodes.at(0).prev != prev || onRing != k.inUse {
		return fmt.Errorf("LRU ring link broken after %d nodes, %d are in use", onRing, k.inUse)
	}
	return nil
}
