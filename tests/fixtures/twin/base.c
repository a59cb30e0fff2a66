int base_a(int x) { return x + 1; }

int base_b(int x) { return x * 2; }
