package chain

// EdgeCodesAllocated reports whether the chain has allocated its edge-code
// cache (EdgeCodes), for the external tests.
func EdgeCodesAllocated(c *Chain) bool { return c.edges != nil }
