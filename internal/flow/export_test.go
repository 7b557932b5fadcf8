package flow

// Hooks for the external tests of this directory (package flow_test),
// which drive the flow layer through the lhg facade.

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = raceEnabled

// NetFreeMax is the bound of the network free list.
const NetFreeMax = netFreeMax

// FreeNetworks returns how many networks the free list holds.
func FreeNetworks() int {
	netFree.Lock()
	defer netFree.Unlock()
	return len(netFree.nets)
}

// PoolMisses returns the flow.pool.misses counter: networks the free list
// could not supply.
func PoolMisses() int64 { return mNetPoolMisses.Value() }
