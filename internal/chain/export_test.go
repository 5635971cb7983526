package chain

// RingAllocated reports whether the chain has allocated its ring-ordered
// position cache (RingPos), for the external tests.
func RingAllocated(c *Chain) bool { return c.ring != nil }
