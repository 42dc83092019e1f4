type mode = Off | Tournament
