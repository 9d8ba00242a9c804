// Multi-package fixture, package a: a metric name referenced as
// pkg.Const is a constant whatever package declares it, so a bad
// constant declared in package b is caught at the registration here —
// and so is one from a package that is only a dependency of the program.
package fixture

import (
	"net/http"

	fixb "fixture/b"
	"repro/internal/obs"
)

func register(r *obs.Registry) {
	r.Counter(fixb.BadName) // want "metric name constant fixb\.BadName = \"Bad-Name\" is not lowercase_snake"
	r.Counter(fixb.GoodName)
	r.Counter(obs.DefaultTenant) // a dependency's constant, known by value: "anon"
	r.Counter(http.MethodGet)    // want "metric name constant http\.MethodGet = \"GET\" is not lowercase_snake"
}
