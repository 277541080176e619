// Package wirecompat locks the JSON wire and checkpoint schema against a
// committed golden file.
//
// Two JSON surfaces outlive any single process: the shard protocol
// (everything reachable from shard.Msg crosses the coordinator/worker
// boundary, possibly between binaries built from different commits) and the
// robust checkpoint files (everything reachable from the versioned
// checkpoint/campaign envelopes is read back by future runs). DESIGN.md
// promises "schema vN loads transparently"; that promise dies silently the
// day a field is renamed, retyped, or has its json tag edited, because
// encoding/json just drops unknown keys. The analyzer extracts the
// reachable struct schemas with go/types, compares them against the
// committed lock file (wire.lock at the module root), and fails lint on
// anything but a new-field-only addition — and additions still fail until
// `ppalint -update-wirelock` records them, so every schema change is a
// reviewed diff of the lock file.
package wirecompat

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"ppatuner/internal/analysis"
)

// DefaultRoots maps each wire-root package to the (possibly unexported)
// type names whose reachable JSON surface is locked: the shard protocol
// envelope and the two robust checkpoint file envelopes.
var DefaultRoots = map[string][]string{
	// Msg is the worker protocol; BeaconState is the fail-over liveness
	// file a standby of a *different build* may read.
	"ppatuner/internal/shard": {"Msg", "BeaconState"},
	// The journals of the campaign checkpoint and the job manifest (header
	// line, then one record per line) are read back by future runs like
	// the base files.
	"ppatuner/internal/robust": {"checkpointFile", "campaignFile", "jobsFile", "journalHeader", "journalRecord", "manifestRecord"},
	// The job server's HTTP API: request/response documents plus the SSE
	// event framing. Deployed clients hold the other end of these schemas.
	"ppatuner/internal/serve": {
		"JobRequest", "SubmitResponse", "JobView", "JobListDoc",
		"FrontDoc", "Event", "EventPage", "ErrorDoc", "HealthDoc",
	},
}

// LockFileName is the golden schema file, committed at the module root.
const LockFileName = "wire.lock"

// Config parameterises the analyzer so fixtures can point it at their own
// roots and lock file.
type Config struct {
	// Roots maps root package path -> root type names.
	Roots map[string][]string
	// LockPath is the lock file location; empty means <module root>/wire.lock,
	// with the module root discovered by walking up from the package's files.
	LockPath string
}

// New builds a wirecompat analyzer for the given configuration.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "wirecompat",
		Doc: `lock the JSON wire/checkpoint schema against the committed wire.lock

Every struct reachable from the wire roots (shard.Msg and the robust
checkpoint envelopes) is extracted into a schema and compared against the
golden wire.lock at the module root. Removing or renaming a field, changing
its type, or editing its json tag fails lint; additions are allowed but
must be recorded by regenerating the file with ppalint -update-wirelock, so
every schema change shows up as a reviewed lock-file diff. Exported fields
without a json tag are flagged too: the implicit field name is wire format.`,
		Run: func(pass *analysis.Pass) (any, error) { return run(pass, cfg) },
	}
}

// Analyzer is the production instance over the repo's wire roots.
var Analyzer = New(Config{Roots: DefaultRoots})

// A Field is one JSON-visible struct field in the schema.
type Field struct {
	// Name is the Go field name.
	Name string
	// Tag is the json tag's name part ("" when untagged).
	Tag string
	// Type is the field's type, rendered with full package paths.
	Type string
}

// A Schema maps a struct's full name (pkgpath.TypeName) to its
// JSON-visible fields, sorted by field name (field order is not wire
// format; names and tags are).
type Schema map[string][]Field

// Extract walks the named root types of pkg and returns the schema of
// every reachable named struct. Traversal follows struct fields through
// pointers, slices, arrays and maps; unexported fields and fields tagged
// json:"-" are invisible to encoding/json and are skipped.
func Extract(pkg *types.Package, rootNames []string) (Schema, error) {
	schema := Schema{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		switch tt := t.(type) {
		case *types.Pointer:
			visit(tt.Elem())
		case *types.Slice:
			visit(tt.Elem())
		case *types.Array:
			visit(tt.Elem())
		case *types.Map:
			visit(tt.Key())
			visit(tt.Elem())
		case *types.Named:
			st, ok := tt.Underlying().(*types.Struct)
			if !ok {
				return
			}
			key := typeKey(tt)
			if _, done := schema[key]; done {
				return
			}
			schema[key] = nil // reserve before recursing: cycles terminate
			var fields []Field
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				tag := reflect.StructTag(st.Tag(i)).Get("json")
				name := strings.Split(tag, ",")[0]
				if name == "-" {
					continue
				}
				fields = append(fields, Field{Name: f.Name(), Tag: name, Type: types.TypeString(f.Type(), nil)})
				visit(f.Type())
			}
			sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
			schema[key] = fields
		}
	}
	for _, name := range rootNames {
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			return nil, fmt.Errorf("wire root %s not found in %s", name, pkg.Path())
		}
		visit(obj.Type())
	}
	return schema, nil
}

func typeKey(t *types.Named) string {
	obj := t.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FormatLock renders the full lock file: one "root" section per root
// package, structs and fields in sorted order, so regeneration is
// byte-deterministic.
func FormatLock(sections map[string]Schema) string {
	var b strings.Builder
	b.WriteString("# ppalint wirecompat schema lock. Do not edit by hand:\n")
	b.WriteString("# regenerate with `go run ./cmd/ppalint -update-wirelock` and review the diff.\n")
	roots := make([]string, 0, len(sections))
	for r := range sections {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		fmt.Fprintf(&b, "\nroot %s\n", r)
		schema := sections[r]
		keys := make([]string, 0, len(schema))
		for k := range schema {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "struct %s\n", k)
			for _, f := range schema[k] {
				fmt.Fprintf(&b, "field %s json=%s type=%s\n", f.Name, f.Tag, f.Type)
			}
		}
	}
	return b.String()
}

// ParseLock reads the lock file format back into per-root schemas.
func ParseLock(data string) (map[string]Schema, error) {
	sections := map[string]Schema{}
	var curSchema Schema
	curStruct := ""
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "root "):
			root := strings.TrimSpace(strings.TrimPrefix(line, "root "))
			curSchema = Schema{}
			sections[root] = curSchema
			curStruct = ""
		case strings.HasPrefix(line, "struct "):
			if curSchema == nil {
				return nil, fmt.Errorf("line %d: struct before any root", ln+1)
			}
			curStruct = strings.TrimSpace(strings.TrimPrefix(line, "struct "))
			curSchema[curStruct] = []Field{}
		case strings.HasPrefix(line, "field "):
			if curStruct == "" {
				return nil, fmt.Errorf("line %d: field before any struct", ln+1)
			}
			rest := strings.TrimPrefix(line, "field ")
			name, rest, ok := strings.Cut(rest, " json=")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed field line", ln+1)
			}
			tag, typ, ok := strings.Cut(rest, " type=")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed field line", ln+1)
			}
			curSchema[curStruct] = append(curSchema[curStruct], Field{Name: name, Tag: tag, Type: typ})
		default:
			return nil, fmt.Errorf("line %d: unrecognised lock line %q", ln+1, line)
		}
	}
	return sections, nil
}

func run(pass *analysis.Pass, cfg Config) (any, error) {
	rootNames, ok := cfg.Roots[pass.Pkg.Path()]
	if !ok {
		return nil, nil
	}
	current, err := Extract(pass.Pkg, rootNames)
	if err != nil {
		return nil, err
	}

	structPos, fieldPos, fallback := declIndex(pass)
	posFor := func(structKey, fieldName string) token.Pos {
		if fieldName != "" {
			if p, ok := fieldPos[structKey][fieldName]; ok {
				return p
			}
		}
		if p, ok := structPos[structKey]; ok {
			return p
		}
		return fallback
	}

	lockPath := cfg.LockPath
	if lockPath == "" {
		lockPath = defaultLockPath(pass)
	}
	data, err := os.ReadFile(lockPath)
	if err != nil {
		pass.Reportf(fallback,
			"wirecompat lock file %s is missing; run `go run ./cmd/ppalint -update-wirelock` and commit it", LockFileName)
		return nil, nil
	}
	sections, err := ParseLock(string(data))
	if err != nil {
		pass.Reportf(fallback, "wirecompat lock file %s is corrupt: %v", lockPath, err)
		return nil, nil
	}
	locked, ok := sections[pass.Pkg.Path()]
	if !ok {
		pass.Reportf(fallback,
			"wirecompat lock file has no section for root %s; run `go run ./cmd/ppalint -update-wirelock`", pass.Pkg.Path())
		return nil, nil
	}

	for _, key := range sortedKeys(locked) {
		cur, ok := current[key]
		if !ok {
			pass.Reportf(posFor(key, ""),
				"wire struct %s is locked in %s but no longer reachable from the wire roots; a released decoder still expects it (regenerate the lock only for a deliberate, versioned schema retirement)", key, LockFileName)
			continue
		}
		curByName := map[string]Field{}
		for _, f := range cur {
			curByName[f.Name] = f
		}
		for _, lf := range locked[key] {
			cf, ok := curByName[lf.Name]
			if !ok {
				pass.Reportf(posFor(key, ""),
					"wire struct %s: field %s (json %q) was removed or renamed; persisted checkpoints and peer messages still carry it and would decode incompletely", key, lf.Name, lf.Tag)
				continue
			}
			if cf.Tag != lf.Tag {
				pass.Reportf(posFor(key, lf.Name),
					"wire struct %s: field %s changed json tag %q -> %q; the old key is wire format", key, lf.Name, lf.Tag, cf.Tag)
			}
			if cf.Type != lf.Type {
				pass.Reportf(posFor(key, lf.Name),
					"wire struct %s: field %s changed type %s -> %s; existing encoded values may stop decoding", key, lf.Name, lf.Type, cf.Type)
			}
		}
		lockedNames := map[string]bool{}
		for _, lf := range locked[key] {
			lockedNames[lf.Name] = true
		}
		for _, cf := range cur {
			if !lockedNames[cf.Name] {
				pass.Reportf(posFor(key, cf.Name),
					"wire struct %s: new field %s is not recorded in %s; run `go run ./cmd/ppalint -update-wirelock` and commit the diff", key, cf.Name, LockFileName)
			}
		}
	}
	for _, key := range sortedKeys(current) {
		if _, ok := locked[key]; !ok {
			pass.Reportf(posFor(key, ""),
				"wire struct %s is reachable from the wire roots but not recorded in %s; run `go run ./cmd/ppalint -update-wirelock` and commit the diff", key, LockFileName)
		}
	}
	// Untagged exported fields: the implicit Go field name is the wire
	// format, which makes renames silent schema breaks. Require the tag.
	for _, key := range sortedKeys(current) {
		for _, f := range current[key] {
			if f.Tag == "" {
				pass.Reportf(posFor(key, f.Name),
					"wire struct %s: exported field %s has no json tag; the implicit field name is wire format — tag it explicitly", key, f.Name)
			}
		}
	}
	return nil, nil
}

func sortedKeys(s Schema) []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// declIndex maps struct keys and field names declared in this package to
// their AST positions; foreign structs fall back to the first file.
func declIndex(pass *analysis.Pass) (map[string]token.Pos, map[string]map[string]token.Pos, token.Pos) {
	structPos := map[string]token.Pos{}
	fieldPos := map[string]map[string]token.Pos{}
	fallback := token.NoPos
	for _, file := range pass.Files {
		if fallback == token.NoPos {
			fallback = file.Name.Pos()
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Defs[ts.Name]
			if obj == nil {
				return true
			}
			key := pass.Pkg.Path() + "." + ts.Name.Name
			structPos[key] = ts.Pos()
			if st, ok := ts.Type.(*ast.StructType); ok {
				fp := map[string]token.Pos{}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						fp[name.Name] = name.Pos()
					}
				}
				fieldPos[key] = fp
			}
			return true
		})
	}
	return structPos, fieldPos, fallback
}

// defaultLockPath walks up from the package's source directory to go.mod
// and returns <module root>/wire.lock.
func defaultLockPath(pass *analysis.Pass) string {
	dir := ""
	if len(pass.Files) > 0 {
		dir = filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	}
	for dir != "" {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, LockFileName)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return LockFileName
}
