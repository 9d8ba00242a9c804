package transform

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sqlkit"
)

func TestParsePaymentsPaperExample(t *testing.T) {
	// "Alice wants to buy a laptop from Bob, they agree on a price of
	// $1,000, and Bob needs to pay $5 to the express company as freight."
	ps, err := ParsePayments("Alice pays Bob $1000 and Bob pays Express $5")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("payments = %d", len(ps))
	}
	if ps[0] != (Payment{From: "Alice", To: "Bob", Amount: 1000}) {
		t.Errorf("first = %+v", ps[0])
	}
	if ps[1] != (Payment{From: "Bob", To: "Express", Amount: 5}) {
		t.Errorf("second = %+v", ps[1])
	}
}

func TestParsePaymentsAltPhrasings(t *testing.T) {
	ps, err := ParsePayments("Alice needs to pay $50 to Bob. Bob transfers Carol $20.")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Amount != 50 || ps[1].To != "Carol" {
		t.Errorf("parsed %+v", ps)
	}
}

func TestParsePaymentsErrors(t *testing.T) {
	for _, s := range []string{"", "Alice greets Bob", "Alice pays Bob"} {
		if _, err := ParsePayments(s); err == nil {
			t.Errorf("ParsePayments(%q) succeeded", s)
		}
	}
}

func TestTransactionSQLExecutes(t *testing.T) {
	ps := []Payment{{From: "Alice", To: "Bob", Amount: 1000}, {From: "Bob", To: "Express", Amount: 5}}
	script := TransactionSQL(ps)
	db := sqlkit.NewDB()
	db.Exec("CREATE TABLE accounts (owner TEXT, balance INT)")
	db.Exec("INSERT INTO accounts VALUES ('Alice', 5000), ('Bob', 100), ('Express', 0)")
	for _, sql := range strings.Split(strings.TrimSuffix(script, ";"), ";") {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("script failed: %v\n%s", err, script)
		}
	}
	r, _ := db.Exec("SELECT balance FROM accounts WHERE owner = 'Bob'")
	if r.Rows[0][0].Int != 1095 {
		t.Errorf("Bob = %v", r.Rows[0][0])
	}
	// Total is conserved.
	r, _ = db.Exec("SELECT SUM(balance) FROM accounts")
	if r.Rows[0][0].Int != 5100 {
		t.Errorf("total = %v", r.Rows[0][0])
	}
}

func TestNL2TransactionStrongModel(t *testing.T) {
	n := &NL2Transaction{Model: strongModel()}
	script, resp, err := n.Translate(context.Background(), "Alice pays Bob $1000 and Bob pays Express $5")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Correct {
		t.Error("strong model erred")
	}
	if !strings.HasPrefix(script, "BEGIN") || !strings.HasSuffix(script, "COMMIT;") {
		t.Errorf("script not a transaction:\n%s", script)
	}
	if !ValidateConservation(script) {
		t.Error("correct script fails conservation check")
	}
}

func TestValidationCatchesCorruption(t *testing.T) {
	// Collect a wrong output by using a model that always errs on non-zero
	// difficulty, then confirm the conservation validator flags it.
	n := &NL2Transaction{Model: failingModel()}
	script, resp, err := n.Translate(context.Background(), "Alice pays Bob $1000 and Bob pays Express $5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Correct {
		t.Skip("model unexpectedly correct")
	}
	if ValidateConservation(script) {
		t.Errorf("validator missed dropped credit leg:\n%s", script)
	}
}

func TestValidateConservationEdge(t *testing.T) {
	if ValidateConservation("") {
		t.Error("empty script validated")
	}
	if ValidateConservation("SELECT 1") {
		t.Error("non-transaction validated")
	}
}
