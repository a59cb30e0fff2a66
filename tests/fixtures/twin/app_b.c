int base_b(int);

int main(void) { return base_b(2) == 4 ? 0 : 1; }
