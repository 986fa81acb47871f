package poseidon

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// Design invariants held as data: each row is a name, or an idiom, that a
// change deleted from the tree, with the grep that keeps it out. A row keeps
// that grep as it was written — its flags, its regular expression, the files
// it reads and the matches it lets pass — and TestRetiredNames runs it over
// the checkout, so `go test ./...` refuses a retired name wherever the tree
// is built. The one difference from the grep: in a Go file, comments are
// blanked before the match, so a comment may name what left; string
// literals are kept, so an import path or a flag name still counts.
type retiredName struct {
	pr     int    // the change that retired the name, as CHANGES.md numbers it
	design string // the invariant the row holds, as CHANGES.md names it
	flags  string // grep's flags: E extended syntax (basic without), w whole words, i any case
	re     string
	in     []string // the files read, see inScope
	tests  bool     // _test.go files are read too
	skip   []string // files whose matches pass
	except []string // basic regexps: a matching line passes
}

// The scopes the rows share.
var (
	everyGo       = []string{"*.go"}
	serverGo      = []string{"internal/server/*.go"}
	serverAndMain = []string{"internal/server/*.go", "cmd/poseidond/main.go"}
)

var retiredNames = []retiredName{
	{pr: 18, design: "One op event", flags: "-rnE", in: everyGo, tests: true,
		re: `ObserveSpan|ObserveRecovery|OpObserver|SpanObserver|RecoveryObserver`},
	{pr: 28, design: "One account", flags: "-rnE", in: everyGo, tests: true,
		re: `GuardStats|RecoveryStats|FaultStats|CaptureGuards|CaptureArena|SetHeapStats|trace\.MemStats|type MemStats`},
	{pr: 32, design: "One path per capability", flags: "-rnE", in: everyGo,
		re: `func \(ev \*Evaluator\) Try(Add|Sub|MulRelin|Rescale|Rotate|Conjugate)\(|RotateHoisted|MulConstRescale|NoiseBudget|DefaultScale|QAtLevel|GaugeSet|StartSpan|EndSpan|RootAttr|AddOpSpan`},

	// The client's retry backoff is the client's own timer, and Config still
	// declares the two fields it accepts and ignores (bench/serve.go sets
	// them).
	{pr: 20, design: "Work-conserving dispatch", flags: "-n", in: serverGo,
		skip: []string{"internal/server/client.go"}, re: `time\.NewTimer`},
	{pr: 20, design: "Work-conserving dispatch", flags: "-n", in: serverGo, re: `crypto/sha256`},
	{pr: 20, design: "Work-conserving dispatch", flags: "-n", in: serverGo, re: `FlushTimeout`,
		except: []string{`FlushTimeout time.Duration`, `// FlushTimeout is accepted and ignored`}},
	{pr: 20, design: "Work-conserving dispatch", flags: "-n -i", in: []string{"cmd/poseidond/main.go"}, re: `flush`},
	{pr: 30, design: "Work-conserving dispatch", flags: "-nE", in: serverAndMain,
		re: `currentMode|tripGuard|modeShed|windowedP99|RetryBackoff|MaxP99|P99Window|AfterFunc`},
	{pr: 30, design: "Work-conserving dispatch", flags: "-n", in: serverAndMain, re: `DegradeCooldown`,
		except: []string{`DegradeCooldown time.Duration`, `// DegradeCooldown is accepted and ignored`}},

	{pr: 22, design: "Keyswitch transform budget", flags: "-nE", in: []string{"internal/ckks/*.go"},
		re: `withC0|hd\.c0`},

	// The strict transform's one library caller is the rescale spot-check's
	// independent recompute; NTTParallel is NTT's own body, not a twin.
	{pr: 23, design: "One body per limb op", flags: "-rnE", in: everyGo, tests: true,
		re: `ForEachCtx|WorkerPanicError`},
	{pr: 23, design: "One body per limb op", flags: "-n", in: []string{"internal/ring/pool.go"}, re: `"context"`},
	{pr: 27, design: "One body per limb op", flags: "-rnE", in: everyGo, tests: true,
		re: `SetStrictKernels|StrictKernels|SetFusionDegree|fusionK`},
	{pr: 27, design: "One body per limb op", flags: "-rnE", in: everyGo,
		skip: []string{"internal/ckks/evaluator_into.go"}, re: `\.(Forward|Inverse)Strict\(`},
	{pr: 23, design: "One body per limb op", flags: "-rl", in: everyGo, re: `EvaluateLinearTransformPerRotation`},
	{pr: 23, design: "One body per limb op", flags: "-n", in: []string{"internal/ckks/*.go"}, re: `Parallel(`,
		except: []string{`NTTParallel(`}},
	{pr: 23, design: "One body per limb op", flags: "-n", in: []string{"internal/ring/*.go"}, re: `Parallel(`,
		except: []string{`NTTParallel(`}},

	{pr: 35, design: "One elementwise product", flags: "-rnE", in: everyGo, tests: true,
		re: `montImage|VecMFormLazy|VecMRed|\.Invalidate\(|\.MulEval\(`},
	{pr: 36, design: "One op runner", flags: "-nE", in: everyGo, re: `evalDoubleHoisted|planMu`},
	{pr: 37, design: "One arena", flags: "-nE", in: everyGo, re: `extFree|getExt|putExt`},
	{pr: 38, design: "One extended layout", flags: "-nE", in: everyGo,
		re: `qpAccum|getAccum|putAccum|diagP|encodeQP|\.row[01]\(`},
	{pr: 39, design: "One record per op", flags: "-nE", in: everyGo,
		re: `ksFree|ltFree|newKsState|ksRelease|hoistedDecomposition|EncodeSparse|DecodeSparse`},
	{pr: 40, design: "One scratch shape", flags: "-nE", in: everyGo,
		re: `GetVec|PutVec|ApplyScratch|nttPerms|\) Automorphism\(`},
	// A transform is its own schedule, and the parameter set owns the arena
	// (Parameters.Arena stays: the Arena rows match a Ring's method only).
	// The tests named after the schedule keep their names, hence -w.
	{pr: 42, design: "One schedule per transform", flags: "-rnwE", in: everyGo, tests: true,
		re: `LinearTransformPlan`},
	{pr: 42, design: "One schedule per transform", flags: "-rnE", in: everyGo, tests: true,
		re: `\.Plan\(\)|\) Plan\(\)`},
	{pr: 42, design: "One arena", flags: "-rnE", in: everyGo, tests: true,
		re: `\*Ring\) Arena\(|Ring[QP]\.Arena\(|GetPoly|GetPolyDirty|PutPoly`},

	// One executor, and every kernel under ckks has a caller. The executor
	// tests keep the names they had as ForEach's, hence \b; the Montgomery row
	// is word-bounded so MForm and VecMontMul stay, and the ring row's leading
	// dot keeps ckks's kernMulScalar / opMulScalar clear.
	{pr: 43, design: "One executor", flags: "-rnE", in: everyGo, tests: true,
		re: `\.ForEach\(|\bForEachChunk\b`},
	{pr: 43, design: "One elementwise product", flags: "-rnwE", in: everyGo, tests: true,
		re: `MRed|MRedLazy|MFormLazy|IMForm|MontMul|VecMontMulAdd`},
	{pr: 43, design: "No orphan kernels", flags: "-rnE", in: everyGo, tests: true,
		re: `\.MulCoeffwiseAdd\(|\.MulScalar\(|\.MulScalarRNS\(|\.DropLimb\(`},
	{pr: 43, design: "No orphan kernels", flags: "-rnE", in: everyGo, tests: true, re: `\.CSV\(`},

	// Software timings are bench/'s and the Chrome export is the
	// /debug/requests handler's; baseline keeps literature rows only. The
	// Kit row matches the method and its calls on a kit, so the evaluator's
	// Eval.TryInnerSum stays.
	{pr: 45, design: "One timer, one exporter", flags: "-rnE", in: everyGo, tests: true,
		re: `CPUMeasurement|runCPU|runTraceReport|WriteChromeTrace`},
	{pr: 45, design: "One timer, one exporter", flags: "-rnwE", in: []string{"internal/baseline/"}, tests: true,
		re: `Source|Measured|Reported`},
	{pr: 45, design: "No test-only exports", flags: "-rnE", in: everyGo, tests: true,
		re: `ToBigCentered|SetBigCentered|FreeCount`},
	{pr: 45, design: "One path per capability", flags: "-rnE", in: everyGo, tests: true,
		re: `Kit\) TryInnerSum\(|\b(k|kit)\.TryInnerSum\(`},

	// The root package's software op timers were duplicates of bench/'s, and
	// a bootstrapper runs on the pool its parameters give it. The SetWorkers
	// row matches the Bootstrapper's method and calls on a bootstrapper, so
	// TraceRecorder.SetWorkers stays; the model and kernel rows are code only
	// its own tests called (-w keeps VecMACWide and the tests' names clear).
	{pr: 46, design: "One timer, one model", flags: "-rnwE", in: everyGo, tests: true,
		re: `BenchmarkTable4BasicOpsSoftware|BenchmarkKeyswitch|BenchmarkEncodeDecode|BenchmarkParallelEvaluator|BenchmarkParallelBootstrapSlot`},
	{pr: 46, design: "One timer, one model", flags: "-rnE", in: everyGo, tests: true,
		re: `Bootstrapper\) SetWorkers\(|\bboot\.SetWorkers\(`},
	{pr: 46, design: "No test-only exports", flags: "-rnwE", in: everyGo, tests: true,
		re: `HBMGeometry|U280HBM|WorkingSetBytes|FitsScratchpad|SimulateOverlapped|MulShoupLazy|ReduceTwoQ|MACWide`},
	{pr: 46, design: "No test-only exports", flags: "-rnE", in: everyGo, tests: true,
		re: `EnergyModel\) EDP\(|\.EDP\(|\*Trace\) Append\(|\*Collector\) (Workload|UnknownOps)\(`},

	{pr: 24, design: "Kernels in registers", flags: "-nE", in: []string{"internal/numeric/*.go", "internal/rns/*.go"},
		re: `\(\*\[[0-9]+\]uint64\)`},
	{pr: 26, design: "Lanes", flags: "-rnE", in: []string{"internal/ntt/*.go", "internal/numeric/*.go"}, tests: true,
		re: `os\.Getenv|flag\.`},
	{pr: 31, design: "Lanes", flags: "-rnwE", in: []string{"internal/ntt/"}, tests: true,
		re: `fwdPass4Last|fwdPass2Last|invPass4First|invPass4|invPass2First|invPass2`},
	// One probe answers both halves (IFMA, DQ), and a table holds one body
	// choice, not a lanes flag beside it.
	{pr: 48, design: "Lanes", flags: "-rnE", in: []string{"internal/ntt/*.go", "internal/numeric/*.go"}, tests: true,
		re: `cpuHasIFMA|\.lanes\b|lanes +bool`},
	// The plaintext MAC's Go loop is numeric's macPairBlocked, the loop the
	// body tests compare the vector bodies against: no copy of it in ckks or
	// in a test.
	{pr: 49, design: "Lanes", flags: "-rnE", in: everyGo, tests: true, re: `ltMacBlock|macBlockGo`},
	// One body enum and one rule, numeric.Modulus.Body: no second rule or
	// enum, no probe read outside numeric, and no caller choosing between two
	// numeric kernels (the plaintext MAC is one VecMACPair call).
	{pr: 50, design: "Lanes", flags: "-rnE", in: everyGo,
		re: `pickBody|pickInner|innerBody|HasDQ|InnerProductLanes|VecMACPairBlocked|\.Lanes\(\)`},
	// The RNS conversion's body is one shape gate, Modulus.ConvertBody,
	// returning a Body (IFMA52, DQ or Go), not a yes/no for the IFMA52
	// lanes beside a second rule.
	{pr: 51, design: "Lanes", flags: "-rnE", in: everyGo, tests: true, re: `LanesFit`},
	// The elementwise MA / MM loops live in numeric, one kernel per form on
	// the body rule: ckks's add loop and the tensor's separate pair-sum
	// kernel are gone (the tensor is one VecTensor pass).
	{pr: 52, design: "Lanes", flags: "-rnwE", in: everyGo, tests: true, re: `addRows|VecMulPairSum`},

	{pr: 33, design: "One program on the datapath", flags: "-rnE", in: everyGo,
		re: `Compile(HAdd|PMult|NTT|Automorphism|Rescale|RNSConv|ModUp|ModDown|CMult|Rotation)\b|OpCounts|SecondsParallel|isa\.(Auto|Copy)\b|\bLaneC\b|PublishExpvar`},
	{pr: 33, design: "One program on the datapath", flags: "-nwE", in: []string{"internal/isa/*.go"}, re: `Auto|Copy`},
}

// inScope reports whether the file at slash path p, relative to the module
// root, is one the patterns name: a pattern without a slash matches a base
// name anywhere in the tree ("*.go", as grep -r --include does), one ending
// in a slash a whole directory tree, and any other one a path (path.Match).
func inScope(p string, patterns []string) bool {
	for _, pat := range patterns {
		var ok bool
		switch {
		case !strings.Contains(pat, "/"):
			ok, _ = path.Match(pat, path.Base(p))
		case strings.HasSuffix(pat, "/"):
			ok = strings.HasPrefix(p, pat)
		default:
			ok, _ = path.Match(pat, p)
		}
		if ok {
			return true
		}
	}
	return false
}

// basic rewrites a POSIX basic regular expression, as grep reads one
// without -E, in RE2 syntax, where ( ) | + ? { } are operators.
func basic(re string) string {
	var b strings.Builder
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\' && i+1 < len(re):
			b.WriteString(re[i : i+2])
			i++
		case strings.IndexByte("()|+?{}", c) >= 0:
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// pattern is the row's regexp in RE2 syntax, as grep's flags read it.
func (r retiredName) pattern() string {
	re := r.re
	if !strings.Contains(r.flags, "E") {
		re = basic(re)
	}
	if strings.Contains(r.flags, "w") {
		re = `(?:^|[^0-9A-Za-z_])(?:` + re + `)(?:[^0-9A-Za-z_]|$)`
	}
	if strings.Contains(r.flags, "i") {
		re = "(?i)" + re
	}
	return re
}

// code returns src with, in a Go file, each comment blanked byte for byte,
// so line numbers and string literals stay where they were.
func code(name string, src []byte) string {
	if strings.HasSuffix(name, ".go") {
		fset := token.NewFileSet()
		file := fset.AddFile(name, fset.Base(), len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			for i := file.Offset(pos); i < file.Offset(pos)+len(lit); i++ {
				if src[i] != '\n' {
					src[i] = ' '
				}
			}
		}
	}
	return string(src)
}

// needles returns strings one of which every match of re holds, or nil if
// it knows none. A text holding none of them cannot match, which spares
// the line-by-line scan of most files (regexp is slow, the more so under
// -race).
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return needles(re.Sub[0])
	case syntax.OpConcat: // any part's needles do; keep those whose shortest is longest
		var best []string
		for _, sub := range re.Sub {
			if n := needles(sub); shortest(n) > shortest(best) {
				best = n
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			all = append(all, n...)
		}
		return all
	}
	return nil
}

// shortest is the length of the shortest string in n, 0 for none.
func shortest(n []string) int {
	m := 0
	for i, s := range n {
		if i == 0 || len(s) < m {
			m = len(s)
		}
	}
	return m
}

// treeFiles lists every file of the checkout as a slash path relative to
// the module root, leaving out directories whose names start with a dot
// (.git, build caches).
func treeFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRetiredNames runs every row of retiredNames over the tree: a line a
// row matches fails the test, named by file, line and the row's PR. The walk
// leaves out directories whose names start with a dot (.git, build caches)
// and this file, which spells every row.
func TestRetiredNames(t *testing.T) {
	const self = "invariants_test.go"
	files := slices.DeleteFunc(treeFiles(t), func(f string) bool { return f == self })

	texts := map[string]string{}
	for _, r := range retiredNames {
		parsed, err := syntax.Parse(r.pattern(), syntax.Perl)
		if err != nil {
			t.Fatalf("PR %d %q: %v", r.pr, r.re, err)
		}
		re := regexp.MustCompile(r.pattern()) // parsed above, as Compile parses it
		ndl := needles(parsed)
		var except []*regexp.Regexp
		for _, e := range r.except {
			except = append(except, regexp.MustCompile(basic(e)))
		}
		read := 0
		for _, f := range files {
			if !inScope(f, r.in) || (!r.tests && strings.HasSuffix(f, "_test.go")) {
				continue
			}
			read++
			text, ok := texts[f]
			if !ok {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				text = code(f, src)
				texts[f] = text
			}
			if slices.Contains(r.skip, f) ||
				ndl != nil && !slices.ContainsFunc(ndl, func(n string) bool { return strings.Contains(text, n) }) {
				continue
			}
		line:
			for i, l := range strings.Split(text, "\n") {
				if !re.MatchString(l) {
					continue
				}
				for _, e := range except {
					if e.MatchString(l) {
						continue line
					}
				}
				t.Errorf("%s:%d: PR %d retired %q (%s): %s", f, i+1, r.pr, r.re, r.design, strings.TrimSpace(l))
			}
		}
		if read == 0 {
			t.Errorf("PR %d %q (%s) reads no file: %v names nothing in the tree", r.pr, r.re, r.design, r.in)
		}
	}
}

// TestDocsNameWhatExists holds README.md and DESIGN.md to names the tree
// defines: every BenchmarkXxx they cite is a func in some _test.go, bench/
// included; every `cmd/poseidon <sub>` is a subcommand cmd/poseidon
// dispatches — one it registers, or one its main matches by name; and every
// `pkg.Ident` in backticks, where pkg is a package under internal/ and Ident
// is exported, is declared in pkg's non-test files: a top-level name, or a
// method, which prose names as `numeric.VecMontMul` for Modulus.VecMontMul.
func TestDocsNameWhatExists(t *testing.T) {
	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	subcommand := regexp.MustCompile(`register\("(\w+)"|name == "(\w+)"`)
	benchmarks, subs := map[string]bool{}, map[string]bool{}
	decls := map[string]map[string]bool{} // internal package → its declared names
	for _, f := range treeFiles(t) {
		isTest, isCmd := strings.HasSuffix(f, "_test.go"), path.Dir(f) == "cmd/poseidon"
		if !isTest && strings.HasPrefix(f, "internal/") && strings.HasSuffix(f, ".go") {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			names := decls[file.Name.Name]
			if names == nil {
				names = map[string]bool{}
				decls[file.Name.Name] = names
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
			continue
		}
		if !isTest && !(isCmd && strings.HasSuffix(f, ".go")) {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := code(f, src)
		if isTest {
			for _, m := range benchFunc.FindAllStringSubmatch(text, -1) {
				benchmarks[m[1]] = true
			}
		}
		if isCmd && !isTest {
			for _, m := range subcommand.FindAllStringSubmatch(text, -1) {
				subs[m[1]+m[2]] = true
			}
		}
	}
	if len(benchmarks) == 0 || len(subs) == 0 || len(decls) == 0 {
		t.Fatalf("found %d benchmarks, %d subcommands and %d internal packages: the scan reads nothing", len(benchmarks), len(subs), len(decls))
	}

	// go test runs a BenchmarkXxx whose Xxx does not start with a lower-case
	// letter, so "Benchmarks" in prose is not a name.
	benchRef := regexp.MustCompile(`\bBenchmark[A-Z0-9_]\w*`)
	subRef := regexp.MustCompile(`cmd/poseidon (\w+)`)
	codeSpan := regexp.MustCompile("`[^`]+`")
	qualified := regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range benchRef.FindAllString(line, -1) {
				if !benchmarks[name] {
					t.Errorf("%s:%d names %s, which no _test.go defines", doc, i+1, name)
				}
			}
			for _, m := range subRef.FindAllStringSubmatch(line, -1) {
				if !subs[m[1]] {
					t.Errorf("%s:%d names cmd/poseidon %s, which cmd/poseidon does not dispatch", doc, i+1, m[1])
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range qualified.FindAllStringSubmatch(span, -1) {
					if names, ok := decls[m[1]]; ok && !names[m[2]] {
						t.Errorf("%s:%d names %s.%s, which package %s does not declare", doc, i+1, m[1], m[2], m[1])
					}
				}
			}
		}
	}
}
