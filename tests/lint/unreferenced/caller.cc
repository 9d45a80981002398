#include "lib.h"

int main(int argc, char**) { return fixture::Used(argc); }
