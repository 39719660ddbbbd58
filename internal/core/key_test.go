package core

import (
	"reflect"
	"testing"

	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// keyExcluded lists the configuration leaves CanonicalKey leaves out on
// purpose: runtime plumbing that cannot change a result (Monitor,
// Progress), the deprecated, ignored Stream, the page attributes Run
// derives from hashed fields (Machine.Attrs), and the caches' display
// names.
var keyExcluded = map[string]bool{
	"Stream":           true,
	"Monitor":          true,
	"Progress":         true,
	"Machine.Attrs":    true,
	"Machine.L1I.Name": true,
	"Machine.L1D.Name": true,
	"Machine.L2.Name":  true,
}

// TestCanonicalKeyCoversEveryField perturbs every exported leaf of
// RunConfig and of the machine's sim.Params, one at a time, and
// requires each to move CanonicalKey unless keyExcluded names it, in
// which case it must not. A field added to either struct and forgotten
// in CanonicalKey or hashMachine fails here instead of becoming a wrong
// cache hit in the result store and across the cluster.
func TestCanonicalKeyCoversEveryField(t *testing.T) {
	m := sim.DefaultParams()
	base := RunConfig{Workload: workload.TRFD4, System: BlkDma, Scale: 3, Seed: 5, PrefDist: 2, Machine: &m}
	want := base.CanonicalKey()
	spec, err := scenario.Resolve(scenario.PresetNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					walk(join(path, f.Name), v.Field(i))
				}
			}
			return
		case v.Type() == reflect.TypeOf(&m):
			walk(path, v.Elem())
			return
		}
		seen++
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		perturb(t, path, v, spec)
		moved := base.CanonicalKey() != want
		v.Set(old)
		if base.CanonicalKey() != want {
			t.Fatalf("%s: restoring the field did not restore the key", path)
		}
		switch {
		case keyExcluded[path] && moved:
			t.Errorf("%s moves CanonicalKey but is listed as excluded", path)
		case !keyExcluded[path] && !moved:
			t.Errorf("%s does not move CanonicalKey: add it to the key or to keyExcluded", path)
		}
	}
	walk("", reflect.ValueOf(&base).Elem())
	if seen < 30 {
		t.Errorf("walked only %d leaves", seen)
	}
}

func join(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// perturb changes leaf v to a different value of its type.
func perturb(t *testing.T, path string, v reflect.Value, spec *scenario.Spec) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	case reflect.Pointer:
		if v.Type() == reflect.TypeOf(spec) {
			v.Set(reflect.ValueOf(spec))
		} else {
			v.Set(reflect.New(v.Type().Elem()))
		}
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}
