// Package seed holds the one stateless mixer every seeded fault layer
// hashes its fates with, and documents the convention they share.
//
// # Seeding contract
//
// Every source of adversity in a campaign draws its randomness in one of
// exactly three ways, so that a seed pins the whole campaign and no layer
// can steal entropy from another:
//
//  1. Up-front plans. Anything scheduled ahead of time — the chaos Plan in
//     internal/chaos, wan.PlanOutages partition/collapse windows — consumes
//     a fixed number of PRNG draws per event (Plan draws six per event even
//     when a kind needs fewer; PlanOutages draws three per window) from its
//     own rand.New(rand.NewSource(seed)). Fixed draw counts mean adding an
//     event kind never shifts the schedule of later events under the same
//     seed.
//  2. Stateless per-chunk fates. Per-tick randomness that cannot be planned
//     up front — one WAN chunk's delivered/dropped/corrupted fate, one
//     disk write's torn/failed fate — is a pure hash (Mix64) of its
//     coordinates: (seed, from, to, transfer, chunk, attempt) for the WAN,
//     (seed, path, op kind, per-path op count) for internal/diskfault.
//     No stream state survives between draws, so a daemon resumed from a
//     snapshot re-derives the identical fates mid-image. Disk bit rot
//     extends the scheme with a persistence key: decay is drawn per
//     (seed, path, file generation), the generation bumping on every
//     create-or-replace event, so a decayed file reads back identically
//     decayed until something rewrites it — which is what makes
//     scrub-and-repair both observable and reproducible.
//  3. No randomness at all. Deterministic fault hooks such as
//     faults.FlakyProxy.SetPartition and diskfault.FS.SetDegraded (the
//     sick-disk window: every fsync fails while it is on) are switched on
//     and off by the campaign at planned times; the mechanism itself has
//     no entropy to seed away, and its effect is reproduced by replaying
//     the plan.
//
// Seed lanes keep concurrent streams disjoint: per-site solar traces use
// seed+1000*(site+1)+day, the WAN partition planner offsets the campaign
// seed, chunk fates fold the link seed into the hash, and the bit-rot
// storm gives its kill planner and each injecting filesystem its own
// additive lane constant. Never share one PRNG between layers and never
// draw a data-dependent number of values — both break bit-identical
// reruns and snapshot resume.
package seed

// Gamma is the SplitMix64 increment, the 64-bit golden ratio. Mix64(x +
// i*Gamma) for i = 0, 1, 2, … is the SplitMix64 stream seeded at x.
const Gamma = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 finalizer — a cheap, well-distributed 64-bit
// mixer, the same construction the stdlib uses to seed PRNG streams.
func Mix64(z uint64) uint64 {
	z += Gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
