// Does not parse: tesla-check must exit 2 (no verdicts), not 1.
int main(int x) {
	return x +;
}
