package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestPinnedPickSequence pins every policy's pick stream over sparse ids
// registered in a permuted order, with epoch-style leasing (up to four picks
// leased, then accounted and released) and Block/Unblock churn between
// epochs: 256 ids with a few 1 % caps, and 8 ids with 10 % caps that bind.
// The credit and cfs hashes are the (id, quantum) streams those policies
// produced when the entity table was id-keyed maps; the rr hashes are those
// of round-robin's registration-order cursor. A table change that moves a
// single pick, a quantum, a refill or a throttle shows here.
func TestPinnedPickSequence(t *testing.T) {
	want := map[string]uint64{
		"rr/256":     0xe07ba6ff0b0c360d,
		"credit/256": 0xbc049df21f968a69,
		"cfs/256":    0xf091015c650dcc60,
		"rr/8":       0x149f4d9084f50761,
		"credit/8":   0xce6ba589328d637c,
		"cfs/8":      0xf8f3025327be1e4,
	}
	for _, tc := range []struct {
		n, capEvery int
		capPct      uint64
	}{{256, 31, 1}, {8, 2, 10}} {
		for name, mk := range policies() {
			s := mk()
			for i := 0; i < tc.n; i++ {
				id := pinnedID(i, tc.n)
				capPct := uint64(0)
				if id%tc.capEvery == 0 {
					capPct = tc.capPct
				}
				s.Add(id, uint64(64+id%4*64), capPct)
			}
			h := fnv.New64a()
			var rec [17]byte
			rng := uint64(0x9E3779B97F4A7C15)
			var leased []int
			for round := 0; round < 10_000; round++ {
				leased = leased[:0]
				for len(leased) < 4 {
					id, q, ok := s.Next()
					rec[0] = 0
					if ok {
						rec[0] = 1
					}
					binary.LittleEndian.PutUint64(rec[1:], uint64(id))
					binary.LittleEndian.PutUint64(rec[9:], q)
					h.Write(rec[:])
					if !ok {
						break
					}
					s.BeginLease(id)
					leased = append(leased, id)
				}
				for _, id := range leased {
					rng = xorshift(rng)
					s.Account(id, 1+rng%1_000_000)
					s.EndLease(id)
				}
				rng = xorshift(rng)
				victim := pinnedID(int(rng%uint64(tc.n)), tc.n)
				if rng>>32&3 == 0 {
					s.Block(victim)
				} else {
					s.Unblock(victim)
				}
			}
			key := fmt.Sprintf("%s/%d", name, tc.n)
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: pick stream hash %#x, want %#x", key, got, want[key])
			}
		}
	}
}

// TestRoundRobinLiveness drives round-robin with random Next, lease,
// Block and Unblock churn over sparse ids registered in a permuted order,
// and holds it to token circulation on a ring: an entity that stays
// runnable (neither blocked nor leased) waits at most n-1 picks of others,
// and Next finds a runnable entity whenever one exists.
func TestRoundRobinLiveness(t *testing.T) {
	for _, n := range []int{2, 3, 8, 64} {
		size := 1
		for size < n {
			size *= 2
		}
		r := NewRoundRobin(100)
		var ids []int
		for i := 0; i < size; i++ {
			if id := pinnedID(i, size); id < 3*n {
				r.Add(id, 1, 0)
				ids = append(ids, id)
			}
		}
		waited := map[int]int{} // picks of others since it became runnable
		blocked, leased := map[int]bool{}, map[int]bool{}
		runnable := func(id int) bool { return !blocked[id] && !leased[id] }
		rng := uint64(0x9E3779B97F4A7C15) + uint64(n)
		for op := 0; op < 200_000; op++ {
			rng = xorshift(rng)
			id := ids[rng>>8%uint64(len(ids))]
			switch rng % 8 {
			case 0, 1, 2, 3: // pick, leasing half of the picks
				got, _, ok := r.Next()
				if !ok {
					for _, e := range ids {
						if runnable(e) {
							t.Fatalf("n=%d op %d: Next found nothing, but %d is runnable", n, op, e)
						}
					}
					continue
				}
				if !runnable(got) {
					t.Fatalf("n=%d op %d: Next picked %d (blocked %v, leased %v)", n, op, got, blocked[got], leased[got])
				}
				for _, e := range ids {
					if e != got && runnable(e) {
						if waited[e]++; waited[e] > n-1 {
							t.Fatalf("n=%d op %d: %d has stayed runnable through %d picks of others", n, op, e, waited[e])
						}
					}
				}
				waited[got] = 0
				if rng>>40&1 == 0 {
					r.BeginLease(got)
					leased[got] = true
				}
			case 4, 5: // a lease ends
				if leased[id] {
					r.EndLease(id)
					leased[id] = false
					waited[id] = 0
				}
			case 6:
				r.Block(id)
				blocked[id] = true
			case 7:
				if blocked[id] {
					r.Unblock(id)
					blocked[id] = false
					waited[id] = 0
				}
			}
		}
	}
}

// pinnedID maps registration index i (0..n-1, n a power of two) to a sparse
// id: 101 is odd, so i*101 mod n is a permutation, and the stride of 3
// leaves gaps.
func pinnedID(i, n int) int { return i * 101 % n * 3 }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// FuzzLeaseScheduler drives every policy with an op stream decoded from the
// fuzz input — Add (ids 0..299, in any order), Next, BeginLease, Account,
// EndLease, Block and Unblock — against a model of which ids are known,
// blocked and leased. After every op it calls Next and checks that
//   - Next never returns a blocked, leased or unknown id;
//   - Next reports !ok only when every entity is blocked or leased;
//   - Shares sums to the cycles accounted to known ids so far.
//
// Entities are uncapped: a capped entity may be throttled, a legitimate !ok
// the model does not track.
func FuzzLeaseScheduler(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 9, 0, 1, 0, 0, 2, 5, 0, 3, 5, 0, 4, 5, 0, 5, 9, 0, 6, 9, 0})
	f.Add([]byte{0, 44, 1, 0x38, 7, 0, 0x80, 0, 0, 2, 7, 0, 5, 0, 0, 2, 44, 1, 4, 7, 0, 6, 0, 0})
	const ids = 300
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, mk := range policies() {
			s := mk()
			var known, blocked, leased [ids]bool
			var accounted uint64
			for i := 0; i+3 <= len(data); i += 3 {
				op, arg := data[i]%7, uint64(data[i]>>3)
				id := int(binary.LittleEndian.Uint16(data[i+1:])) % ids
				switch op {
				case 0:
					s.Add(id, arg*32, 0)
					known[id] = true
				case 1:
					s.Next()
				case 2:
					s.BeginLease(id)
					leased[id] = known[id]
				case 3:
					s.Account(id, arg*1000+1)
					if known[id] {
						accounted += arg*1000 + 1
					}
				case 4:
					s.EndLease(id)
					leased[id] = false
				case 5:
					s.Block(id)
					blocked[id] = known[id]
				case 6:
					s.Unblock(id)
					blocked[id] = false
				}

				got, _, ok := s.Next()
				if ok && (got < 0 || got >= ids) {
					t.Fatalf("%s op %d: Next returned unknown id %d", name, i/3, got)
				}
				if ok && (!known[got] || blocked[got] || leased[got]) {
					t.Fatalf("%s op %d: Next returned id %d (known %v, blocked %v, leased %v)",
						name, i/3, got, known[got], blocked[got], leased[got])
				}
				if !ok {
					for e := range known {
						if known[e] && !blocked[e] && !leased[e] {
							t.Fatalf("%s op %d: Next reported nothing runnable, but %d is", name, i/3, e)
						}
					}
				}
				var sum float64
				for _, u := range s.Shares() {
					sum += u
				}
				if sum != float64(accounted) {
					t.Fatalf("%s op %d: Shares sum to %v, accounted %d", name, i/3, sum, accounted)
				}
			}
		}
	})
}
