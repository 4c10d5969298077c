package table

import "testing"

func TestKeyConstructors(t *testing.T) {
	u := Unary(3, 9)
	if u.U != 3 || u.V != None || u.X != None || u.Y != None || u.S != 9 {
		t.Fatalf("Unary = %+v", u)
	}
	b := Binary(3, 4, 9)
	if b.U != 3 || b.V != 4 || b.X != None || b.S != 9 {
		t.Fatalf("Binary = %+v", b)
	}
}
