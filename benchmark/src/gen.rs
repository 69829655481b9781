//! The data generator: the paper's Figure 1 scaled up.
//!
//! Four film peers and one people peer. Peer 0 (the *hub*) stores casts
//! in Source 1's shape, `film starring _:c . _:c artist person`; peers
//! 1-3 store them in Source 2's shape, `film actor person`, each under
//! its own `actor` IRI. The people peer is Source 3: an `age` literal
//! per person, a `nick` literal for a third of them, and the `sameAs`
//! links to the film peers' person IRIs. One graph mapping assertion
//! per actor peer, `actor ⇝ starring·artist` into the hub (Example 2's
//! `Q2 ⇝ Q1`), keeps the system linear and therefore FO-rewritable. A
//! few actor-peer films are `sameAs` a hub film, as `db1:Spiderman` is
//! `db2:Spiderman2002` in the figure.
//!
//! Who appears in which film is fixed by index arithmetic and a
//! constant structural stream, so stored and solution sizes are the
//! same for every seed and can be asserted at set-up. The seed decides
//! every label (which IRI is which person and film), every age and
//! year, and — in `ops` — every key the operations ask about.

use crate::rng::Rng;
use rps_core::{GraphMappingAssertion, Peer, PeerId, RdfPeerSystem};
use rps_query::{GraphPattern, GraphPatternQuery, TermOrVar, Variable};
use rps_rdf::{vocab, Graph, IdTriple, Term, Triple};

/// Shared property vocabulary (`starring`, `artist`, `age`, `nick`, `year`).
pub const VOCAB: &str = "http://vocab.example.org/";
/// Namespace of the people peer's person IRIs.
pub const PEOPLE_NS: &str = "http://people.example.org/person/";
/// Number of film peers; peer 0 is the hub.
pub const FILM_PEERS: usize = 4;
/// Lowest age and number of distinct ages.
pub const AGE_MIN: usize = 18;
/// Number of distinct ages (`AGE_MIN..AGE_MIN + AGES`).
pub const AGES: usize = 70;
/// First release year.
pub const YEAR_MIN: usize = 1900;

/// Every `SECOND_ALIAS_EVERY`-th person is also known to a second film peer.
const SECOND_ALIAS_EVERY: usize = 9;
/// Actor-peer film `i` of peer `k` is `sameAs` hub film `i` iff `i % LINK_EVERY == k`.
const LINK_EVERY: usize = 16;
/// Every `NICK_EVERY`-th person has a nickname.
const NICK_EVERY: usize = 3;
/// Films a person appears in, per peer that knows them.
const ROUNDS: usize = 3;
/// Cast sizes, cycled over a peer's films.
const CAST_SIZES: [usize; 5] = [2, 3, 4, 5, 6];
/// Seed of the structural stream (never `--seed`).
const STRUCTURE_SEED: u64 = 0xF16_0001;

/// The namespace of film peer `k`.
pub fn db_ns(k: usize) -> String {
    format!("http://db{k}.example.org/")
}

/// The `actor` predicate of actor peer `k` (1-3).
pub fn actor_iri(k: usize) -> String {
    format!("{}schema/actor", db_ns(k))
}

/// A shared-vocabulary IRI.
pub fn v(local: &str) -> String {
    format!("{VOCAB}{local}")
}

/// Size of a generated system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Persons in the people peer.
    pub people: usize,
    /// Distinct release years (fewer years, more films per year).
    pub years: usize,
}

/// One film of a film peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Film {
    /// The film's IRI in its peer's namespace.
    pub iri: String,
    /// Release year.
    pub year: usize,
    /// Cast, as the peer's own person IRIs.
    pub cast: Vec<String>,
}

/// One person of the people peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Person {
    /// The person's IRI in the people peer.
    pub iri: String,
    /// Age.
    pub age: usize,
    /// Nickname, for a third of the persons.
    pub nick: Option<String>,
    /// `(film peer, IRI in that peer)` of every alias.
    pub aliases: Vec<(usize, String)>,
}

/// A generated peer system as plain data. [`Dataset::to_system`] turns
/// it into the engine's input; `model::Model` answers queries from it
/// without the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dataset {
    /// The scale it was generated at.
    pub scale: Scale,
    /// Films by film peer (index 0 is the hub).
    pub films: Vec<Vec<Film>>,
    /// The people peer.
    pub people: Vec<Person>,
    /// `(hub film, actor-peer film)` equivalences, stored in the hub.
    pub film_links: Vec<(String, String)>,
}

impl Dataset {
    /// Generates the system for `seed` at `scale`.
    pub fn generate(seed: u64, scale: Scale) -> Dataset {
        let np = scale.people;
        let mut labels = Rng::new(seed, 1);
        let person_label = labels.permutation(np);
        let age_slot = labels.permutation(np);

        let mut people: Vec<Person> = (0..np)
            .map(|j| {
                let label = person_label[j];
                let home = j % FILM_PEERS;
                let mut aliases = vec![(home, format!("{}person/P{label}", db_ns(home)))];
                if j % SECOND_ALIAS_EVERY == 0 {
                    let second = (home + 1) % FILM_PEERS;
                    aliases.push((second, format!("{}person/P{label}", db_ns(second))));
                }
                Person {
                    iri: format!("{PEOPLE_NS}P{label}"),
                    age: AGE_MIN + age_slot[j] as usize % AGES,
                    nick: (j % NICK_EVERY == 0).then(|| format!("nick{label}")),
                    aliases,
                }
            })
            .collect();

        // Casts: every alias of a peer is dealt into ROUNDS of its films.
        let mut structure = Rng::new(STRUCTURE_SEED, 0);
        let mut films: Vec<Vec<Film>> = Vec::with_capacity(FILM_PEERS);
        for k in 0..FILM_PEERS {
            let known: Vec<&str> = people
                .iter()
                .flat_map(|p| p.aliases.iter())
                .filter(|(peer, _)| *peer == k)
                .map(|(_, iri)| iri.as_str())
                .collect();
            let mut deck: Vec<&str> = Vec::with_capacity(known.len() * ROUNDS);
            for _ in 0..ROUNDS {
                let mut round = known.clone();
                structure.shuffle(&mut round);
                deck.extend(round);
            }
            let mut casts: Vec<Vec<String>> = Vec::new();
            let mut at = 0;
            while at < deck.len() {
                let size = CAST_SIZES[casts.len() % CAST_SIZES.len()].min(deck.len() - at);
                // A film that straddles two rounds may draw one person
                // twice; trade the repeat for the next card that is new.
                for i in at..at + size {
                    if deck[at..i].contains(&deck[i]) {
                        if let Some(j) =
                            (at + size..deck.len()).find(|&j| !deck[at..i].contains(&deck[j]))
                        {
                            deck.swap(i, j);
                        }
                    }
                }
                let mut cast: Vec<String> = Vec::with_capacity(size);
                for person in &deck[at..at + size] {
                    if !cast.iter().any(|c| c == person) {
                        cast.push(person.to_string());
                    }
                }
                casts.push(cast);
                at += size;
            }
            let film_label = labels.permutation(casts.len());
            let year_slot = labels.permutation(casts.len());
            films.push(
                casts
                    .into_iter()
                    .enumerate()
                    .map(|(i, cast)| Film {
                        iri: format!("{}film/F{}", db_ns(k), film_label[i]),
                        year: YEAR_MIN + year_slot[i] as usize % scale.years,
                        cast,
                    })
                    .collect(),
            );
        }

        // The same work carries the same year in both peers.
        let mut film_links = Vec::new();
        let (hub, rest) = films.split_at_mut(1);
        for (k, peer_films) in rest.iter_mut().enumerate() {
            let k = k + 1;
            for (i, film) in peer_films.iter_mut().enumerate() {
                if i % LINK_EVERY == k && i < hub[0].len() {
                    film.year = hub[0][i].year;
                    film_links.push((hub[0][i].iri.clone(), film.iri.clone()));
                }
            }
        }

        // Listing order inside the people peer follows the labels, so
        // that interning order differs between seeds too.
        people.sort_by(|a, b| a.iri.cmp(&b.iri));
        Dataset {
            scale,
            films,
            people,
            film_links,
        }
    }

    /// Stored triples over all peers.
    pub fn stored_triples(&self) -> usize {
        let hub: usize = self.films[0].iter().map(|f| 1 + 2 * f.cast.len()).sum();
        let actors: usize = self.films[1..]
            .iter()
            .flatten()
            .map(|f| 1 + f.cast.len())
            .sum();
        let people: usize = self
            .people
            .iter()
            .map(|p| 1 + usize::from(p.nick.is_some()) + p.aliases.len())
            .sum();
        hub + self.film_links.len() + actors + people
    }

    /// The `film actor person` triple of actor peer `k`.
    pub fn actor_triple(k: usize, film: &str, person: &str) -> Triple {
        Triple::new(Term::iri(film), Term::iri(actor_iri(k)), Term::iri(person))
            .expect("IRIs are valid in every position")
    }

    /// Builds the engine's input: five peers, three graph mapping
    /// assertions and the equivalences imported from the `sameAs` triples.
    pub fn to_system(&self) -> RdfPeerSystem {
        let mut system = RdfPeerSystem::new();
        let same_as = Term::iri(vocab::OWL_SAME_AS);
        let lit = |n: usize| Term::literal(n.to_string());

        for (k, films) in self.films.iter().enumerate() {
            let mut g = Graph::new();
            let mut batch: Vec<IdTriple> = Vec::new();
            let year = g.intern(&Term::iri(v("year")));
            if k == 0 {
                let starring = g.intern(&Term::iri(v("starring")));
                let artist = g.intern(&Term::iri(v("artist")));
                let mut blanks = 0usize;
                for film in films {
                    let f = g.intern(&Term::iri(film.iri.as_str()));
                    let y = g.intern(&lit(film.year));
                    batch.push(IdTriple::new(f, year, y));
                    for person in &film.cast {
                        let c = g.intern(&Term::blank(format!("c{blanks}")));
                        blanks += 1;
                        let p = g.intern(&Term::iri(person.as_str()));
                        batch.push(IdTriple::new(f, starring, c));
                        batch.push(IdTriple::new(c, artist, p));
                    }
                }
                let same = g.intern(&same_as);
                for (hub_film, peer_film) in &self.film_links {
                    let a = g.intern(&Term::iri(hub_film.as_str()));
                    let b = g.intern(&Term::iri(peer_film.as_str()));
                    batch.push(IdTriple::new(a, same, b));
                }
            } else {
                let actor = g.intern(&Term::iri(actor_iri(k)));
                for film in films {
                    let f = g.intern(&Term::iri(film.iri.as_str()));
                    let y = g.intern(&lit(film.year));
                    batch.push(IdTriple::new(f, year, y));
                    for person in &film.cast {
                        let p = g.intern(&Term::iri(person.as_str()));
                        batch.push(IdTriple::new(f, actor, p));
                    }
                }
            }
            g.insert_batch(batch);
            system.add_peer(Peer::from_database(format!("films {k}"), g));
        }

        let mut g = Graph::new();
        let mut batch: Vec<IdTriple> = Vec::new();
        let age = g.intern(&Term::iri(v("age")));
        let nick = g.intern(&Term::iri(v("nick")));
        let same = g.intern(&same_as);
        for person in &self.people {
            let p = g.intern(&Term::iri(person.iri.as_str()));
            let a = g.intern(&lit(person.age));
            batch.push(IdTriple::new(p, age, a));
            if let Some(n) = &person.nick {
                let n = g.intern(&Term::literal(n.as_str()));
                batch.push(IdTriple::new(p, nick, n));
            }
            for (_, alias) in &person.aliases {
                let a = g.intern(&Term::iri(alias.as_str()));
                batch.push(IdTriple::new(p, same, a));
            }
        }
        g.insert_batch(batch);
        system.add_peer(Peer::from_database("people", g));

        let var = |n: &str| Variable::new(n);
        for k in 1..FILM_PEERS {
            let premise = GraphPatternQuery::new(
                vec![var("x"), var("y")],
                GraphPattern::triple(
                    TermOrVar::var("x"),
                    TermOrVar::iri(&actor_iri(k)),
                    TermOrVar::var("y"),
                ),
            );
            let conclusion = GraphPatternQuery::new(
                vec![var("x"), var("y")],
                GraphPattern::triple(
                    TermOrVar::var("x"),
                    TermOrVar::iri(&v("starring")),
                    TermOrVar::var("z"),
                )
                .and(GraphPattern::triple(
                    TermOrVar::var("z"),
                    TermOrVar::iri(&v("artist")),
                    TermOrVar::var("y"),
                )),
            );
            system.add_assertion(
                GraphMappingAssertion::new(PeerId(k), PeerId(0), premise, conclusion)
                    .expect("premise and conclusion have the same arity"),
            );
        }
        system.import_same_as();
        system
    }
}
