package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServiceOffSimulator keeps the daemon and the ingest service off
// the paper's simulated GPU pipeline: none of the simulator packages
// may be reachable through their (non-test) imports. The service cuts
// streams with a chunk.Engine; internal/core and its substrate exist
// for the paper's experiments.
func TestServiceOffSimulator(t *testing.T) {
	const module = "shredder/"
	root := filepath.Join("..", "..")
	banned := map[string]bool{}
	for _, p := range []string{"core", "gpu", "pcie", "hostmem", "host", "sim"} {
		banned[module+"internal/"+p] = true
	}
	for _, start := range []string{module + "cmd/shredderd", module + "internal/ingest"} {
		// importer maps each reached package to the one that first
		// imported it, so a violation reports its import chain.
		importer := map[string]string{start: ""}
		queue := []string{start}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			if banned[path] {
				chain := []string{path}
				for p := importer[path]; p != ""; p = importer[p] {
					chain = append([]string{p}, chain...)
				}
				t.Errorf("%s reaches the simulator: %s", start, strings.Join(chain, " -> "))
				continue
			}
			pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if _, seen := importer[imp]; !seen && strings.HasPrefix(imp, module) {
					importer[imp] = path
					queue = append(queue, imp)
				}
			}
		}
	}
}
