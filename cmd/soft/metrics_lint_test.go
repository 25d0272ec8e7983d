package main

import (
	"regexp"
	"testing"

	"github.com/soft-testing/soft/internal/obs"
)

// metricName is the fleet-wide naming convention: every metric is
// soft_-prefixed snake case, with the unit suffixed where one applies
// (_ns, _total, _bytes). The CLI binary links every package that
// registers metrics, so walking the default registry here lints the
// whole inventory.
var metricName = regexp.MustCompile(`^soft_[a-z0-9_]+$`)

// TestMetricNamesLint walks the process-global registry and fails on any
// name outside the convention — a misnamed metric would silently fork
// dashboards and any Prometheus reader's scrape keys.
func TestMetricNamesLint(t *testing.T) {
	names := obs.Default.Names()
	if len(names) == 0 {
		t.Fatal("no metrics registered — the registry walk is vacuous")
	}
	for _, name := range names {
		if !metricName.MatchString(name) {
			t.Errorf("metric %q does not match %s", name, metricName)
		}
	}
}

// TestMetricRegisteredOnce fails when any name was registered more than
// once: a second NewCounter/NewGauge/NewHistogram call for an existing
// name silently aliases the first metric, which is almost always a
// copy-paste bug (readers that need an existing metric should go through
// an accessor, e.g. dist.LeaseRTTSnapshot).
func TestMetricRegisteredOnce(t *testing.T) {
	for name, n := range obs.Default.Registrations() {
		if n != 1 {
			t.Errorf("metric %q registered %d times, want exactly 1", name, n)
		}
	}
}
