int base_a(int);

int main(void) { return base_a(1) == 2 ? 0 : 1; }
