// Package cachetest holds the test helper the policy-matrix tests of
// several packages share.
package cachetest

import (
	"os"
	"strings"
	"testing"

	"ucp/internal/cache"
)

// Policies returns the replacement policies a policy-matrix test covers:
// every supported policy, or only the one the UCP_POLICY environment
// variable names (the CI policy matrix runs those tests once per policy
// that way).
func Policies(t testing.TB) []cache.Policy {
	t.Helper()
	s := strings.ToLower(strings.TrimSpace(os.Getenv("UCP_POLICY")))
	if s == "" || s == "all" {
		return cache.Policies()
	}
	p, err := cache.ParsePolicy(s)
	if err != nil {
		t.Fatalf("UCP_POLICY: %v", err)
	}
	return []cache.Policy{p}
}
