// Command swiftdir-mcheck runs the bounded-exhaustive protocol model
// checker (internal/mcheck) against the real coherence controllers: it
// explores every interleaving of a small configuration and checks SWMR,
// data-value consistency, deadlock freedom, and the per-policy
// transition relation in every reachable state.
//
// Usage:
//
//	swiftdir-mcheck [-policy name|all] [-cores n] [-clusters n] [-lines n]
//	                [-depth n] [-outstanding n] [-maxstates n] [-coverage]
//	                [-artifacts dir]
//
// On a violation it prints the minimal counterexample schedule and the
// replayed message transcript, optionally writes them to -artifacts (for
// CI upload), and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/coherence"
	"repro/internal/mcheck"
)

func main() {
	policy := flag.String("policy", "all", "protocol to check (MESI, SwiftDir, S-MESI, Phase-Priority, ...), or 'all' for the three paper protocols plus Phase-Priority")
	cores := flag.Int("cores", 2, "number of cores (1-4)")
	clusters := flag.Int("clusters", 0, "cluster count for the two-level directory (0/1 = flat; must divide -cores)")
	lines := flag.Int("lines", 1, "distinct cache lines accessed (1-8)")
	depth := flag.Int("depth", 4, "total accesses injected along any schedule")
	outstanding := flag.Int("outstanding", 2, "max in-flight accesses per core")
	maxStates := flag.Int("maxstates", 500000, "state cap before the search reports truncation")
	coverage := flag.Bool("coverage", false, "print the transition-relation coverage report")
	artifacts := flag.String("artifacts", "", "directory to write counterexample files into (for CI artifact upload)")
	flag.Parse()

	var policies []coherence.Policy
	if *policy == "all" {
		policies = append(append([]coherence.Policy{}, coherence.Policies...), coherence.PhasePriority)
		if *clusters > 1 {
			// The two-level directory requires FIFO bank queues, so the
			// arbitration variant is excluded from the default sweep.
			policies = policies[:len(coherence.Policies)]
		}
	} else {
		p := coherence.PolicyByName(*policy)
		if p == nil {
			fmt.Fprintf(os.Stderr, "swiftdir-mcheck: unknown policy %q\n", *policy)
			os.Exit(2)
		}
		policies = []coherence.Policy{p}
	}

	failed := false
	for _, p := range policies {
		res, err := mcheck.Run(mcheck.Config{
			Policy:         p,
			Cores:          *cores,
			Clusters:       *clusters,
			Lines:          *lines,
			Depth:          *depth,
			MaxOutstanding: *outstanding,
			MaxStates:      *maxStates,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "swiftdir-mcheck: %v\n", err)
			os.Exit(2)
		}
		status := "OK"
		if res.Truncated {
			status = "TRUNCATED"
		}
		if res.Violation != nil {
			status = "VIOLATION"
			failed = true
		}
		fmt.Printf("%-10s %-10s states=%-8d edges=%-8d quiescent=%-5d terminal=%-5d maxdepth=%-3d %v\n",
			res.Policy, status, res.States, res.Edges, res.Quiescent,
			res.Terminal, res.MaxDepth, res.Elapsed.Round(1000000))

		if res.Violation != nil {
			fmt.Println()
			fmt.Println(res.Violation)
			if *artifacts != "" {
				if err := writeArtifact(*artifacts, res.Policy, res.Violation); err != nil {
					fmt.Fprintf(os.Stderr, "swiftdir-mcheck: %v\n", err)
				}
			}
		}
		if *coverage {
			fmt.Println()
			fmt.Print(res.Coverage())
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeArtifact saves one counterexample to dir, named after the policy.
func writeArtifact(dir, policy string, cx *mcheck.Counterexample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ToLower(strings.ReplaceAll(policy, "/", "-"))
	path := filepath.Join(dir, fmt.Sprintf("counterexample-%s.txt", name))
	if err := os.WriteFile(path, []byte(cx.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("counterexample written to %s\n", path)
	return nil
}
