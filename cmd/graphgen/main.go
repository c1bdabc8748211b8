// Command graphgen generates synthetic graphs (the dataset stand-ins or
// raw generator families), converts between graph file formats, and
// reports structural properties.
//
// Usage:
//
//	graphgen -data UK -stats                 # stand-in + Table 2 properties
//	graphgen -type ba -n 10000 -deg 8 -out g.txt
//	graphgen -type rmat -n 65536 -deg 16 -stats
//	graphgen -data Wiki -out wiki.snap       # write a binary CSR snapshot
//	graphgen -convert g.txt -out g.snap      # edge list -> snapshot
//	graphgen -convert g.snap -out g.txt      # snapshot -> edge list
//
// Output format follows the -out extension: ".snap" writes the binary CSR
// snapshot (checksummed, reloads in O(bytes)); anything else writes the
// plain-text edge list. -convert detects the input format by content
// (snapshot magic number, text otherwise), so it also re-encodes and
// re-validates snapshots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"predict"
	"predict/internal/gen"
	"predict/internal/graph"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset stand-in prefix: LJ, Wiki, TW, UK")
		typ     = flag.String("type", "", "generator family: ba, rmat, er, ws, powerlaw, lognormal, path, cycle, star, grid")
		convert = flag.String("convert", "", "load this graph file (snapshot or edge list) instead of generating")
		n       = flag.Int("n", 10000, "vertices")
		deg     = flag.Float64("deg", 8, "average out-degree (family-dependent)")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (with -data)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "write the graph to this file (.snap = binary snapshot, else edge list)")
		stats   = flag.Bool("stats", false, "measure and print structural properties")
	)
	flag.Parse()

	g, name, err := build(*data, *typ, *convert, *n, *deg, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d vertices, %d edges, avg out-degree %.2f\n",
		name, g.NumVertices(), g.NumEdges(), g.AvgOutDegree())

	if *stats {
		p := graph.Measure(g, 32, 200, *seed)
		fmt.Printf("max out-degree      %d\n", p.MaxOutDegree)
		fmt.Printf("effective diameter  %d\n", p.EffectiveDiameter)
		fmt.Printf("clustering coeff    %.3f\n", p.Clustering)
		fmt.Printf("power-law alpha     %.2f\n", p.PowerLawAlpha)
		fmt.Printf("largest WCC         %.1f%%\n", 100*p.LargestWCC)
		fmt.Printf("mean in/out ratio   %.2f\n", p.InOutRatio)
	}
	if *out != "" {
		if err := writeGraphFile(*out, g); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// writeGraphFile writes g to path in the format the extension selects.
func writeGraphFile(path string, g *graph.Graph) error {
	if strings.HasSuffix(path, ".snap") {
		return graph.WriteSnapshotFile(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := predict.WriteGraph(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func build(data, typ, convert string, n int, deg, scale float64, seed uint64) (*graph.Graph, string, error) {
	if convert != "" {
		if data != "" || typ != "" {
			return nil, "", fmt.Errorf("-convert is exclusive with -data/-type")
		}
		g, err := predict.LoadGraphFile(convert)
		if err != nil {
			return nil, "", err
		}
		return g, convert, nil
	}
	if data != "" {
		ds, err := gen.ByPrefix(data)
		if err != nil {
			return nil, "", err
		}
		return ds.Generate(scale, seed), ds.Name, nil
	}
	switch typ {
	case "ba":
		return gen.BarabasiAlbert(n, int(deg/1.5)+1, 0.5, seed), "barabasi-albert", nil
	case "rmat":
		return gen.RMAT(n, deg, seed), "rmat", nil
	case "er":
		return gen.ErdosRenyi(n, deg, seed), "erdos-renyi", nil
	case "ws":
		return gen.WattsStrogatz(n, int(deg), 0.1, seed), "watts-strogatz", nil
	case "powerlaw":
		return gen.FromDegreeDist(n, gen.PowerLawDist{Alpha: 2.3, Min: 2, Max: n / 50},
			gen.ConfigModelOptions{TargetBias: 0.8}, seed), "powerlaw-config", nil
	case "lognormal":
		return gen.FromDegreeDist(n, gen.LogNormalDist{Mu: 2, Sigma: 1, Min: 1, Max: n / 50},
			gen.ConfigModelOptions{TargetBias: 0.5}, seed), "lognormal-config", nil
	case "path":
		return gen.Path(n), "path", nil
	case "cycle":
		return gen.Cycle(n), "cycle", nil
	case "star":
		return gen.Star(n, true), "star", nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return gen.Grid(side, side), "grid", nil
	}
	return nil, "", fmt.Errorf("need -data, -type or -convert (got type=%q)", typ)
}
