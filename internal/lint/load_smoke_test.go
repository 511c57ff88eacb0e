package lint

import "testing"

func TestLoadSmoke(t *testing.T) {
	pkgs, err := LoadPackages("../..", "./internal/mp", "./internal/cluster")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		t.Logf("%s: %d files, types=%v", p.PkgPath, len(p.Files), p.Types.Name())
	}
	if len(pkgs) != 2 {
		t.Fatalf("want 2 pkgs, got %d", len(pkgs))
	}
}
