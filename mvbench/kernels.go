package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// deepKinds are miss-deep's kernel families, taken in turn.
var deepKinds = []string{"matmul", "stencil", "recurrence", "prefix", "histogram"}

// deepKernel returns miss-deep's i-th request: a fresh kernel whose
// extents make the interpreted profile dominate classify time. Each
// family keeps a handful of loops (so walks, PEG build and the forward
// stay cheap) and scales only the trip counts.
func deepKernel(seed, i int64) Request {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(programSeed(seed, i))))))
	kind := deepKinds[i%int64(len(deepKinds))]
	c := 1 + rng.Intn(9) // a per-request constant, so every source is fresh
	var b strings.Builder
	switch kind {
	case "matmul":
		n := 13 + rng.Intn(3)
		fmt.Fprintf(&b, "float A[%d][%d];\nfloat B[%d][%d];\nfloat C[%d][%d];\n", n, n, n, n, n, n)
		b.WriteString("void main() {\n")
		fmt.Fprintf(&b, "    for (int k = 0; k < %d; k++) { A[k / %d][k %% %d] = k * %d.5; B[k / %d][k %% %d] = k %% 7; }\n", n*n, n, n, c, n, n)
		fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) {\n", n)
		fmt.Fprintf(&b, "        for (int j = 0; j < %d; j++) {\n", n)
		b.WriteString("            float acc = 0.0;\n")
		fmt.Fprintf(&b, "            for (int k = 0; k < %d; k++) { acc += A[i][k] * B[k][j]; }\n", n)
		b.WriteString("            C[i][j] = acc;\n")
		b.WriteString("        }\n    }\n}\n")
	case "stencil":
		n := 16 + rng.Intn(3)
		t := 5 + rng.Intn(3)
		fmt.Fprintf(&b, "float U[%d][%d];\nfloat V[%d][%d];\n", n, n, n, n)
		b.WriteString("void main() {\n")
		fmt.Fprintf(&b, "    for (int k = 0; k < %d; k++) { U[k / %d][k %% %d] = (k * %d) %% 7; }\n", n*n, n, n, c)
		fmt.Fprintf(&b, "    for (int t = 0; t < %d; t++) {\n", t)
		fmt.Fprintf(&b, "        for (int i = 1; i < %d; i++) {\n", n-1)
		fmt.Fprintf(&b, "            for (int j = 1; j < %d; j++) { V[i][j] = (U[i - 1][j] + U[i + 1][j] + U[i][j - 1] + U[i][j + 1]) * 0.25; }\n", n-1)
		b.WriteString("        }\n")
		fmt.Fprintf(&b, "        for (int i = 1; i < %d; i++) {\n", n-1)
		fmt.Fprintf(&b, "            for (int j = 1; j < %d; j++) { U[i][j] = V[i][j]; }\n", n-1)
		b.WriteString("        }\n    }\n}\n")
	case "recurrence":
		rows := 14 + rng.Intn(5)
		cols := 80 + rng.Intn(17)
		fmt.Fprintf(&b, "float X[%d][%d];\nfloat Y[%d][%d];\n", rows, cols, rows, cols)
		b.WriteString("void main() {\n")
		fmt.Fprintf(&b, "    for (int k = 0; k < %d; k++) { Y[k / %d][k %% %d] = (k * %d) %% 5; }\n", rows*cols, cols, cols, c)
		fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) {\n", rows)
		b.WriteString("        X[i][0] = Y[i][0];\n")
		fmt.Fprintf(&b, "        for (int j = 1; j < %d; j++) { X[i][j] = X[i][j - 1] * 0.5 + Y[i][j]; }\n", cols)
		b.WriteString("    }\n}\n")
	case "prefix":
		n := 1600 + rng.Intn(401)
		fmt.Fprintf(&b, "float P[%d];\n", n)
		b.WriteString("void main() {\n")
		fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) { P[i] = (i * %d) %% 11; }\n", n, c)
		fmt.Fprintf(&b, "    for (int i = 1; i < %d; i++) { P[i] = P[i] + P[i - 1]; }\n", n)
		b.WriteString("}\n")
	case "histogram":
		n := 1600 + rng.Intn(401)
		bins := 16 + rng.Intn(17)
		fmt.Fprintf(&b, "int K[%d];\nfloat H[%d];\nfloat W[%d];\n", n, bins, n)
		b.WriteString("void main() {\n")
		fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) { K[i] = (i * %d + 1) %% %d; W[i] = i %% 3; }\n", n, c, bins)
		fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) { H[K[i]] += W[i]; }\n", n)
		b.WriteString("}\n")
	}
	return Request{
		Name:   fmt.Sprintf("deep-%d-%d-%s", seed, i, kind),
		Source: b.String(),
		Model:  modelFor(i),
	}
}
